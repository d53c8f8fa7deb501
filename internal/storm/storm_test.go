package storm

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"dropzero/internal/epp"
	"dropzero/internal/loadgen"
	"dropzero/internal/model"
	"dropzero/internal/registry"
	"dropzero/internal/simtime"
)

// stormFixture is a self-hosted registry + EPP server with nNames contested
// names seeded pendingDelete, its clock at the Drop's 19:00 start.
type stormFixture struct {
	store *registry.Store
	clock *simtime.SimClock
	srv   *epp.Server
	addr  string
	creds map[int]string
	names []string
	day   simtime.Day
}

func newStormFixture(t testing.TB, nNames int, accreds []int, cfg epp.ServerConfig) *stormFixture {
	t.Helper()
	day := simtime.Day{Year: 2018, Month: time.March, Dom: 8}
	clock := simtime.NewSimClock(day.At(18, 59, 0))
	store := registry.NewStoreWithShards(clock, 8)
	creds := make(map[int]string)
	for _, a := range accreds {
		store.AddRegistrar(model.Registrar{IANAID: a, Name: fmt.Sprintf("Accred %d", a)})
		creds[a] = fmt.Sprintf("tok-%d", a)
	}
	names := make([]string, nNames)
	for i := range names {
		names[i] = fmt.Sprintf("contested%03d.com", i)
		updated := day.AddDays(-35).At(6, 30, i)
		if _, err := store.SeedAt(names[i], accreds[0], updated.AddDate(-2, 0, 0), updated,
			updated.AddDate(0, 0, -30), model.StatusPendingDelete, day); err != nil {
			t.Fatal(err)
		}
	}
	if cfg.Credentials == nil {
		cfg.Credentials = creds
	}
	srv := epp.NewServer(store, clock, cfg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	clock.Set(day.At(19, 0, 0))
	return &stormFixture{store: store, clock: clock, srv: srv, addr: addr.String(), creds: creds, names: names, day: day}
}

// schedule plans the fixture's Drop under cfg and returns it with the
// Release callback that applies it.
func (fx *stormFixture) schedule(t testing.TB, cfg registry.DropConfig) ([]registry.Scheduled, func([]registry.Scheduled) error) {
	t.Helper()
	runner := registry.NewDropRunner(fx.store, cfg)
	sched := runner.Schedule(fx.day, rand.New(rand.NewSource(1)))
	if len(sched) != len(fx.names) {
		t.Fatalf("scheduled %d deletions, want %d", len(sched), len(fx.names))
	}
	return sched, func(batch []registry.Scheduled) error {
		for _, sc := range batch {
			if _, err := runner.Apply(sc); err != nil {
				return err
			}
		}
		return nil
	}
}

// spread plans a Drop releasing one name every step from first past 19:00.
func (fx *stormFixture) spread(t testing.TB, first, step time.Duration) ([]registry.Scheduled, func([]registry.Scheduled) error) {
	sched, release := fx.schedule(t, registry.DropConfig{StartHour: 19, BaseRatePerSec: 10000})
	for i := range sched {
		sched[i].Time = fx.day.At(19, 0, 0).Add(first + time.Duration(i)*step)
	}
	return sched, release
}

// TestStormFCFSOneWinnerPerName races two services (one compliant, one
// abusive) against a live Drop, over TCP on the wall clock and in-process
// on the virtual one: every dropped name must be won exactly once, the
// registry must agree with every ack, and the report must carry the full
// fairness and latency breakdown. Run under -race in CI.
func TestStormFCFSOneWinnerPerName(t *testing.T) {
	for _, clock := range []string{"wall", "virtual"} {
		t.Run(clock, func(t *testing.T) {
			accredsA := []int{1000, 1001, 1002}
			accredsB := []int{2000, 2001}
			fx := newStormFixture(t, 12, append(append([]int{}, accredsA...), accredsB...), epp.ServerConfig{})
			sched := loadgen.DropCatchSchedule{
				Lead:         60 * time.Millisecond,
				FastInterval: 15 * time.Millisecond,
				FastRetries:  30,
				Horizon:      2 * time.Second,
			}
			drop, release := fx.spread(t, 100*time.Millisecond, 20*time.Millisecond)
			cfg := Config{
				Dial:       func() (*epp.Client, error) { return epp.Dial(fx.addr) },
				Credential: func(a int) string { return fx.creds[a] },
				Drop:       drop,
				Release:    release,
				Profiles: []ClientProfile{
					{Service: "CatcherA", Accreditations: accredsA, Sessions: 6, Schedule: sched,
						Compliant: true, PerDomainInFlight: 2},
					{Service: "CatcherB", Accreditations: accredsB, Sessions: 4, Schedule: sched,
						PerDomainInFlight: 2},
				},
			}
			if clock == "virtual" {
				cfg.Dial = func() (*epp.Client, error) { return fx.srv.ConnectInProc(), nil }
				cfg.Clock = fx.clock
			}
			rep, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.DropErrors) != 0 {
				t.Fatalf("drop errors: %v", rep.DropErrors)
			}
			if len(rep.Winners) != len(fx.names) {
				t.Fatalf("%d names won, want %d (unclaimed: %v)", len(rep.Winners), len(fx.names), rep.Unclaimed)
			}
			if len(rep.MultiAcks) != 0 {
				t.Fatalf("names acked more than once: %v", rep.MultiAcks)
			}
			if err := rep.VerifyWins(fx.store); err != nil {
				t.Fatalf("registry disagrees with acks: %v", err)
			}
			if len(rep.Unclaimed) != 0 {
				t.Fatalf("unclaimed names: %v", rep.Unclaimed)
			}
			// Fairness accounting must cover every win, by accreditation and
			// by service.
			total := 0
			for _, n := range rep.WinsByAccreditation {
				total += n
			}
			if total != len(fx.names) {
				t.Fatalf("accreditation wins sum to %d, want %d", total, len(fx.names))
			}
			if rep.WinsByService["CatcherA"]+rep.WinsByService["CatcherB"] != len(fx.names) {
				t.Fatalf("service wins %v don't cover all names", rep.WinsByService)
			}
			if rep.OfferedRPS <= 0 || rep.AchievedRPS <= 0 {
				t.Fatalf("offered %v achieved %v", rep.OfferedRPS, rep.AchievedRPS)
			}
			if rep.Creates.CodeCounts[epp.CodeOK] != uint64(len(fx.names)) {
				t.Fatalf("code breakdown %v: want %d OK acks", rep.Creates.CodeCounts, len(fx.names))
			}
			delays := rep.WinDelays()
			if len(delays) != len(fx.names) {
				t.Fatalf("%d win delays, want %d", len(delays), len(fx.names))
			}
			if clock == "wall" {
				if rep.Creates.Requests == 0 || rep.Creates.P999() <= 0 {
					t.Fatalf("create stats empty: %+v", rep.Creates)
				}
				// Re-registration delay must be storm-scale (sub-second),
				// not horizon-scale: the fast-retry burst straddles each drop
				// instant.
				if max := delays[len(delays)-1]; max > time.Second {
					t.Fatalf("slowest re-registration took %v", max)
				}
				return
			}
			// In virtual time a schedule aimed at the release instant wins
			// in zero seconds. Each profile's four pre-shots per name found
			// the name still pendingDelete (2302) and were retried; nothing
			// else was refused, because the winning create settles the name
			// before the rival's shot at the same instant is sent.
			if delays[len(delays)-1] != 0 {
				t.Fatalf("virtual-time re-registration delays %v, want all zero", delays)
			}
			preShots := uint64(len(fx.names) * len(cfg.Profiles) * 4)
			if got := rep.Creates.CodeCounts[epp.CodeObjectExists]; got != preShots {
				t.Fatalf("%d pre-release creates answered 2302, want %d", got, preShots)
			}
		})
	}
}

// TestStormCompliantStopsOnRateLimit pins the two client behaviours the
// report distinguishes: a compliant profile abandons a name at the first
// 2502, an abusive one keeps hammering through the push-back. No name is
// released: every allowed create answers objectExists, and the token bucket
// still gets charged.
func TestStormCompliantStopsOnRateLimit(t *testing.T) {
	profiles := func(sched loadgen.DropCatchSchedule) []ClientProfile {
		return []ClientProfile{
			{Service: "polite", Accreditations: []int{1000}, Schedule: sched,
				Compliant: true, PerDomainInFlight: 1},
			{Service: "abusive", Accreditations: []int{2000}, Schedule: sched,
				PerDomainInFlight: 1},
		}
	}
	split := func(rep *Report) (polite, abusive ProfileReport) {
		if rep.Creates.CodeCounts[epp.CodeRateLimited] != rep.Profiles[0].RateLimited+rep.Profiles[1].RateLimited {
			t.Fatalf("code breakdown %v disagrees with profile counts", rep.Creates.CodeCounts)
		}
		if len(rep.Winners) != 0 {
			t.Fatalf("nothing dropped, but wins recorded: %v", rep.Winners)
		}
		return rep.Profiles[0], rep.Profiles[1]
	}

	t.Run("wall", func(t *testing.T) {
		// Burst 1 and a negligible refill: the first create burns the token,
		// the second answers 2502.
		fx := newStormFixture(t, 1, []int{1000, 2000}, epp.ServerConfig{CreateBurst: 1, CreateRate: 1e-9})
		drop, _ := fx.spread(t, 10*time.Millisecond, 0)
		rep, err := Run(Config{
			Dial:       func() (*epp.Client, error) { return epp.Dial(fx.addr) },
			Credential: func(a int) string { return fx.creds[a] },
			Drop:       drop,
			Profiles: profiles(loadgen.DropCatchSchedule{
				FastInterval: 5 * time.Millisecond, FastRetries: 20, Horizon: 200 * time.Millisecond,
			}),
		})
		if err != nil {
			t.Fatal(err)
		}
		polite, abusive := split(rep)
		if polite.RateLimited < 1 || polite.Attempts > 4 || polite.Settled == 0 {
			t.Fatalf("polite profile did not stop at 2502: %+v", polite)
		}
		if abusive.RateLimited < 5 || abusive.Attempts <= polite.Attempts {
			t.Fatalf("abusive profile did not push through 2502: %+v", abusive)
		}
	})

	t.Run("virtual", func(t *testing.T) {
		// In simulated time the bucket is exact: 21 attempts 125 ms apart
		// over 2.5 s find the 2-token burst plus 2.5 s × 2 tokens/s of
		// refill, so 7 are answered and 14 refused. The polite profile
		// spends its burst and stops at its first 2502.
		const burst, rate = 2, 2
		sched := loadgen.DropCatchSchedule{
			FastInterval: 125 * time.Millisecond, FastRetries: 20, Horizon: 2500 * time.Millisecond,
		}
		fx := newStormFixture(t, 1, []int{1000, 2000}, epp.ServerConfig{CreateBurst: burst, CreateRate: rate})
		drop, _ := fx.spread(t, 10*time.Millisecond, 0)
		rep, err := Run(Config{
			Dial:       func() (*epp.Client, error) { return fx.srv.ConnectInProc(), nil },
			Credential: func(a int) string { return fx.creds[a] },
			Drop:       drop,
			Profiles:   profiles(sched),
			Clock:      fx.clock,
		})
		if err != nil {
			t.Fatal(err)
		}
		polite, abusive := split(rep)
		attempts := len(sched.Offsets(0))
		allowed := burst + int(rate*sched.Horizon.Seconds())
		if abusive.Attempts != uint64(attempts) || abusive.RateLimited != uint64(attempts-allowed) {
			t.Fatalf("abusive: %+v, want %d attempts and %d answered 2502", abusive, attempts, attempts-allowed)
		}
		if polite.Attempts != burst+1 || polite.RateLimited != 1 || polite.Settled != uint64(attempts-burst-1) {
			t.Fatalf("polite: %+v, want %d attempts, the last one refused", polite, burst+1)
		}
	})
}

// accreditationRace is a virtual-time race over a paced Drop of 60 names
// between a 2- and a 12-accreditation service on identical abusive
// schedules, under tight per-accreditation budgets. The small one is listed
// first, so it wins every tie at one instant.
func accreditationRace(t *testing.T) *Report {
	t.Helper()
	var small, big []int
	for i := 0; i < 12; i++ {
		if i < 2 {
			small = append(small, 2000+i)
		}
		big = append(big, 1000+i)
	}
	fx := newStormFixture(t, 60, append(append([]int{}, small...), big...), epp.ServerConfig{CreateBurst: 2, CreateRate: 0.2})
	drop, release := fx.schedule(t, registry.DropConfig{StartHour: 19, BaseRatePerSec: 4, RateJitter: 0.2})
	sched := loadgen.DropCatchSchedule{
		Lead: 200 * time.Millisecond, FastInterval: 50 * time.Millisecond,
		FastRetries: 60, BackoffFactor: 2, Horizon: 30 * time.Second,
	}
	rep, err := Run(Config{
		Dial:       func() (*epp.Client, error) { return fx.srv.ConnectInProc(), nil },
		Credential: func(a int) string { return fx.creds[a] },
		Drop:       drop,
		Release:    release,
		Profiles: []ClientProfile{
			{Service: "small", Accreditations: small, Sessions: len(small), Schedule: sched},
			{Service: "big", Accreditations: big, Sessions: len(big), Schedule: sched},
		},
		Clock: fx.clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.VerifyWins(fx.store); err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestStormMoreAccreditationsWinMore: when budgets bind, capacity comes from
// accreditation count — the paper's economic argument for holding hundreds
// of them (ablation A5).
func TestStormMoreAccreditationsWinMore(t *testing.T) {
	rep := accreditationRace(t)
	small, big := rep.Profiles[0], rep.Profiles[1]
	t.Logf("small %+v\nbig %+v", small, big)
	if big.Wins <= 2*small.Wins {
		t.Fatalf("accreditation advantage missing: big %+v, small %+v", big, small)
	}
	if small.RateLimited == 0 {
		t.Fatal("small service never hit its budget; the race was not budget-bound")
	}
	if 2*big.Wins >= big.Attempts {
		t.Fatalf("big service's creates succeeded %d of %d times; the race was not contested", big.Wins, big.Attempts)
	}
}

// TestStormVirtualDeterministic: on the virtual clock one configuration is
// one Report, down to every latency bucket and code count.
func TestStormVirtualDeterministic(t *testing.T) {
	a, b := accreditationRace(t), accreditationRace(t)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two virtual-time runs differ:\n%+v\n%+v", a, b)
	}
}

// TestServerCloseDuringStorm closes the server mid-storm: the storm must
// return promptly (no hang, failures counted as errors), every create acked
// before the close must be durably in the store, and the server must drain
// its connection handlers without leaking goroutines. Run under -race in CI.
func TestServerCloseDuringStorm(t *testing.T) {
	accreds := []int{1000, 1001, 2000}
	fx := newStormFixture(t, 30, accreds, epp.ServerConfig{})
	before := runtime.NumGoroutine()

	sched := loadgen.DropCatchSchedule{
		Lead:         20 * time.Millisecond,
		FastInterval: 10 * time.Millisecond,
		FastRetries:  60,
		Horizon:      2 * time.Second,
	}
	drop, release := fx.spread(t, 50*time.Millisecond, 10*time.Millisecond)
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		time.Sleep(150 * time.Millisecond)
		fx.srv.Close()
	}()
	rep, err := Run(Config{
		Dial:       func() (*epp.Client, error) { return epp.Dial(fx.addr) },
		Credential: func(a int) string { return fx.creds[a] },
		Drop:       drop,
		Release:    release,
		Profiles: []ClientProfile{
			{Service: "CatcherA", Accreditations: accreds, Sessions: 6, Schedule: sched},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-closed

	// Acks issued before the close are binding: the registry must hold
	// every one of them. (Multi-acks would also surface here.)
	if err := rep.VerifyWins(fx.store); err != nil {
		t.Fatalf("acked create lost across Close: %v", err)
	}
	// The storm saw the close as transport errors, not a hang.
	if rep.Creates.Errors == 0 {
		t.Fatalf("server closed mid-storm but no attempt failed: %+v", rep.Creates)
	}
	// Drained: handler goroutines are gone once Close has returned.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines not drained: %d -> %d\n%s", before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStormInProcTransport runs the wall-clock engine over
// Server.ConnectInProc — the transport the benchmarks use to take the kernel
// out of the picture.
func TestStormInProcTransport(t *testing.T) {
	accreds := []int{1000, 2000}
	fx := newStormFixture(t, 4, accreds, epp.ServerConfig{})
	sched := loadgen.DropCatchSchedule{
		Lead:         20 * time.Millisecond,
		FastInterval: 10 * time.Millisecond,
		FastRetries:  40,
		Horizon:      2 * time.Second,
	}
	drop, release := fx.spread(t, 40*time.Millisecond, 15*time.Millisecond)
	rep, err := Run(Config{
		Dial:       func() (*epp.Client, error) { return fx.srv.ConnectInProc(), nil },
		Credential: func(a int) string { return fx.creds[a] },
		Drop:       drop,
		Release:    release,
		Profiles: []ClientProfile{
			{Service: "CatcherA", Accreditations: accreds, Sessions: 4, Schedule: sched},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Winners) != len(fx.names) || len(rep.MultiAcks) != 0 {
		t.Fatalf("winners %d multi %v", len(rep.Winners), rep.MultiAcks)
	}
	if err := rep.VerifyWins(fx.store); err != nil {
		t.Fatal(err)
	}
}

func TestStormConfigValidation(t *testing.T) {
	dial := func() (*epp.Client, error) { return nil, nil }
	if _, err := Run(Config{Dial: dial, Profiles: []ClientProfile{{Service: "x", Accreditations: []int{1}}}}); err == nil {
		t.Fatal("storm without a Drop accepted")
	}
	_, err := Run(Config{
		Dial: dial, Drop: []registry.Scheduled{{Name: "a.com"}},
		Profiles: []ClientProfile{{Service: "x"}},
	})
	if err == nil || !strings.Contains(err.Error(), "accreditations") {
		t.Fatalf("profile without accreditations accepted: %v", err)
	}
}
