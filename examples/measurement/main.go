// Measurement: the paper's §3 data-collection methodology run end-to-end
// against real TCP servers — daily pending-delete list downloads, T−3-day
// RDAP lookups with WHOIS fallback (one registrar's RDAP records are broken,
// like Papaki in the paper), the Drop, re-registration by a market of
// drop-catch services, and the final T+8-weeks re-lookup — followed by the
// delay analysis.
//
//	go run ./examples/measurement
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"time"

	"dropzero/internal/core"
	"dropzero/internal/dropscope"
	"dropzero/internal/measure"
	"dropzero/internal/model"
	"dropzero/internal/names"
	"dropzero/internal/rdap"
	"dropzero/internal/registrars"
	"dropzero/internal/registry"
	"dropzero/internal/safebrowsing"
	"dropzero/internal/simtime"
	"dropzero/internal/whois"
)

const studyDays = 3

func main() {
	log.SetFlags(0)
	rng := rand.New(rand.NewSource(11))
	start := simtime.Day{Year: 2018, Month: time.January, Dom: 8}
	clock := simtime.NewSimClock(start.AddDays(-1).At(12, 0, 0))

	// Registry world.
	dir := registrars.BuildDirectory(rng)
	store := registry.NewStore(clock)
	for _, r := range dir.Registrars() {
		store.AddRegistrar(r)
	}
	truths := seed(store, dir, rng, start, studyDays, 400)

	// One tail registrar's RDAP records 500 — the Papaki case.
	broken := dir.Accreditations(registrars.SvcOther)[0]
	rdapSrv := rdap.NewServer(store, rdap.ServerConfig{
		FailRegistrars: map[int]int{broken: http.StatusInternalServerError},
	})
	rdapAddr := mustListen(rdapSrv.Listen)
	defer rdapSrv.Close()
	scopeSrv := dropscope.NewServer(store)
	scopeAddr := mustListen(scopeSrv.Listen)
	defer scopeSrv.Close()
	whoisSrv := whois.NewServer(store)
	whoisAddr := mustListen(whoisSrv.Listen)
	defer whoisSrv.Close()
	oracle := safebrowsing.NewOracle()
	oracleAddr := mustListen(oracle.Listen)
	defer oracle.Close()

	// The measurement pipeline, all over TCP.
	rdapClient, err := rdap.NewClient("http://"+rdapAddr, nil)
	must(err)
	scopeClient, err := dropscope.NewClient("http://"+scopeAddr, nil)
	must(err)
	oracleClient, err := safebrowsing.NewClient("http://"+oracleAddr, nil)
	must(err)
	// Lookups fan out over a bounded worker pool; the WHOIS client keeps the
	// same number of pre-dialed connections ready for fallback queries. The
	// collected dataset is identical at any parallelism.
	const parallelism = 8
	whoisClient := &whois.Client{Addr: whoisAddr, PoolSize: parallelism}
	defer whoisClient.Close()
	pipe := &measure.Pipeline{
		Lists:       scopeClient,
		RDAP:        rdapClient,
		WHOIS:       whoisClient,
		Oracle:      oracleClient,
		TLDFilter:   model.COM,
		Parallelism: parallelism,
	}

	// Study loop: collect every morning, Drop at 19:00, market claims.
	market := registrars.NewMarket(dir, registrars.DefaultMarketConfig(), rng)
	labels := safebrowsing.DefaultLabelModel()
	runner := registry.NewDropRunner(store, registry.DropConfig{
		StartHour: 19, BaseRatePerSec: 3, RateJitter: 0.3,
	})
	ctx := context.Background()
	day := start
	for i := 0; i < studyDays; i++ {
		clock.Set(day.At(10, 0, 0))
		must(pipe.CollectDaily(ctx, day))
		clock.Set(day.At(19, 0, 0))
		events, err := runner.Run(day, rng)
		must(err)
		dropEnd := registry.EndTime(events)
		for _, ev := range events {
			tr := truths[ev.Name()]
			claim := market.Decide(registrars.Lot{
				Name: ev.Name(), Value: tr.value, AgeYears: tr.age,
				DeletedAt: ev.Time(), DropEnd: dropEnd,
			})
			if claim == nil {
				continue
			}
			if _, err := store.CreateAt(ev.Name(), claim.RegistrarID, 1, ev.Time().Add(claim.Delay)); err != nil {
				log.Fatal(err)
			}
			oracle.Set(ev.Name(), labels.Label(claim.Delay, rng))
		}
		fmt.Printf("%v: %d deletions, Drop ended %s\n", day, len(events), dropEnd.Format("15:04:05"))
		day = day.Next()
	}

	// Eight weeks later: the re-lookup pass.
	clock.Set(day.AddDays(57).At(12, 0, 0))
	obs, err := pipe.Finalize(ctx)
	must(err)
	st := pipe.Stats()
	fmt.Printf("\npipeline: %d list entries, %d lookups, %d RDAP errors → %d WHOIS fallbacks\n",
		st.ListEntries, st.Lookups, st.RDAPErrors, st.WHOISFallbacks)
	fmt.Printf("dataset: %d observations, %d re-registered\n", len(obs), st.Reregistered)

	// Delay analysis on the measured data.
	sort.Slice(obs, func(i, j int) bool { return obs[i].Name() < obs[j].Name() })
	days, _ := core.AnalyzeAll(obs, core.DefaultEnvelopeConfig())
	delays := core.AllDelays(days)
	buckets := map[string]int{}
	for _, d := range delays {
		switch {
		case d.Delay == 0:
			buckets["0s (drop-catch)"]++
		case d.Delay <= 3*time.Second:
			buckets["1-3s (drop-catch)"]++
		case d.Delay <= time.Hour:
			buckets["3s-1h (home-grown / holdback)"]++
		default:
			buckets[">1h (retail / batches)"]++
		}
	}
	fmt.Println("\nre-registration delay classes:")
	for _, k := range []string{"0s (drop-catch)", "1-3s (drop-catch)", "3s-1h (home-grown / holdback)", ">1h (retail / batches)"} {
		fmt.Printf("  %-30s %4d\n", k, buckets[k])
	}
	mal := 0
	for i := range obs {
		if obs[i].Malicious() {
			mal++
		}
	}
	fmt.Printf("later flagged by the oracle: %d\n", mal)
}

type truth struct {
	value float64
	age   int
}

// seed populates studyDays of pending deletions with registrar-batched
// update timestamps and returns each name's ground-truth value and age.
func seed(store *registry.Store, dir *registrars.Directory, rng *rand.Rand, start simtime.Day, daysN, perDay int) map[string]truth {
	gen := names.NewGenerator(rng)
	sponsors := dir.Accreditations(registrars.SvcGoDaddy)
	sponsors = append(sponsors, dir.Accreditations(registrars.SvcOther)...)
	lc := registry.DefaultLifecycleConfig()
	truths := make(map[string]truth)
	day := start
	for d := 0; d < daysN; d++ {
		updatedDay := day.AddDays(-35)
		for i := 0; i < perDay; i++ {
			g := gen.Next()
			sponsor := sponsors[rng.Intn(len(sponsors))]
			updated := lc.BatchInstant(updatedDay, sponsor)
			expiry := updated.AddDate(0, 0, -35)
			age := 1 + rng.Intn(8)
			created := expiry.AddDate(-age, 0, 0)
			name := g.Label + ".com"
			if _, err := store.SeedAt(name, sponsor, created, updated, expiry,
				model.StatusPendingDelete, day); err != nil {
				log.Fatal(err)
			}
			truths[name] = truth{value: g.Value, age: age}
		}
		day = day.Next()
	}
	return truths
}

func mustListen(fn func(string) (net.Addr, error)) string {
	addr, err := fn("127.0.0.1:0")
	must(err)
	return addr.String()
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
