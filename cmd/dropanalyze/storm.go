package main

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"dropzero/internal/epp"
	"dropzero/internal/loadgen"
	"dropzero/internal/model"
	"dropzero/internal/registrars"
	"dropzero/internal/registry"
	"dropzero/internal/simtime"
	"dropzero/internal/storm"
)

// stormSweepIntervals are the fast-retry cadences swept by the -storm
// figure, gentlest first. Aggressiveness is attempts per second during the
// contested window (1/interval).
var stormSweepIntervals = []time.Duration{
	400 * time.Millisecond,
	200 * time.Millisecond,
	100 * time.Millisecond,
	50 * time.Millisecond,
	25 * time.Millisecond,
}

// runStormFigure renders the live-storm companion to the paper's Figure 6:
// the re-registration delay CDF as a function of client aggressiveness.
// Each sweep point storms the same in-process registry Drop in virtual time
// with the same session pool but a faster retry schedule. When more names
// release in one second than the pool holds create tokens, the rest wait
// for a refill; the faster the schedule, the sooner a refilled token is
// caught, until the tail meets the budget's refill interval — and every
// attempt past that is a create the registry refuses. The table is a
// function of the seed.
func runStormFigure(w io.Writer, nNames int, seed int64) error {
	fmt.Fprintf(w, "Live storm: re-registration delay CDF vs client aggressiveness\n")
	fmt.Fprintf(w, "(%d contested names per sweep point, in-process EPP transport, virtual time)\n\n", nNames)
	fmt.Fprintf(w, "%10s %9s | %9s %9s %9s %9s | %s\n",
		"attempts/s", "interval", "p25", "p50", "p75", "max", "creates")

	quantile := func(d []time.Duration, q float64) time.Duration {
		if len(d) == 0 {
			return 0
		}
		i := int(q*float64(len(d))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(d) {
			i = len(d) - 1
		}
		return d[i]
	}

	for _, interval := range stormSweepIntervals {
		rep, err := runStormPoint(nNames, seed, interval)
		if err != nil {
			return fmt.Errorf("storm sweep at %v: %w", interval, err)
		}
		delays := rep.WinDelays()
		sched := loadgen.DropCatchSchedule{FastInterval: interval}
		fmt.Fprintf(w, "%10.0f %9s | %9s %9s %9s %9s | %d sent, %d refused 2502\n",
			sched.Aggressiveness(), interval,
			quantile(delays, 0.25), quantile(delays, 0.50), quantile(delays, 0.75), quantile(delays, 1.00),
			rep.Creates.Requests, rep.Creates.CodeCounts[epp.CodeRateLimited])
	}
	fmt.Fprintf(w, "\nReading: each row is one storm; delay is create-ack minus deletion\n")
	fmt.Fprintf(w, "instant per won name, in simulated time. Faster retry cadences pull the\n")
	fmt.Fprintf(w, "tail in until it meets the accreditations' refill interval; past that they\n")
	fmt.Fprintf(w, "buy only refused creates, and more budget means more accreditations (A5).\n")
	return nil
}

// runStormPoint executes one sweep point: a fresh registry whose Drop
// releases about four names a second, and one service storming them at the
// given fast-retry interval through four accreditations that each allow one
// create at once and one every half second. It fires at each release
// instant and no earlier: with the release plan known exactly, a pre-shot
// would only spend budget.
func runStormPoint(nNames int, seed int64, interval time.Duration) (*storm.Report, error) {
	day := simtime.Day{Year: 2018, Month: time.March, Dom: 8}
	clock := simtime.NewSimClock(day.At(18, 59, 0))
	store := registry.NewStoreWithShards(clock, 0)
	accreds := []int{1000, 1001, 1002, 1003}
	creds := make(map[int]string)
	for _, a := range accreds {
		store.AddRegistrar(model.Registrar{IANAID: a, Name: fmt.Sprintf("Sweep %d", a)})
		creds[a] = fmt.Sprintf("tok-%d", a)
	}
	for i := 0; i < nNames; i++ {
		updated := day.AddDays(-35).At(6, 30, i%60)
		if _, err := store.SeedAt(fmt.Sprintf("sweep%04d.com", i), accreds[0], updated.AddDate(-2, 0, 0), updated,
			updated.AddDate(0, 0, -30), model.StatusPendingDelete, day); err != nil {
			return nil, err
		}
	}
	srv := epp.NewServer(store, clock, epp.ServerConfig{Credentials: creds, CreateBurst: 1, CreateRate: 2})
	defer srv.Close()

	runner := registry.NewDropRunner(store, registry.DropConfig{StartHour: 19, BaseRatePerSec: 4, RateJitter: 0.3})
	rep, err := storm.Run(storm.Config{
		Dial:       func() (*epp.Client, error) { return srv.ConnectInProc(), nil },
		Credential: func(a int) string { return creds[a] },
		Drop:       runner.Schedule(day, rand.New(rand.NewSource(seed))),
		Release: func(batch []registry.Scheduled) error {
			for _, sc := range batch {
				if _, err := runner.Apply(sc); err != nil {
					return err
				}
			}
			return nil
		},
		Profiles: []storm.ClientProfile{{
			Service:        registrars.SvcDropCatch,
			Accreditations: accreds,
			Sessions:       4,
			Schedule: loadgen.DropCatchSchedule{
				FastInterval: interval,
				FastRetries:  int(4*time.Second/interval) + 1,
				Horizon:      5 * time.Second,
			},
			PerDomainInFlight: 2,
		}},
		Clock: clock,
	})
	if err != nil {
		return nil, err
	}
	if err := rep.VerifyWins(store); err != nil {
		return nil, err
	}
	return rep, nil
}
