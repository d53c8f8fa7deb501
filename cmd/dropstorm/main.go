// Command dropstorm runs a drop-catch create storm against a live EPP
// registry and audits the outcome. By default it self-hosts a registry with
// the simulated registrar ecosystem, seeds contested pending-delete names,
// executes the Drop, and storms it with the calibrated per-service client
// profiles (DropCatch most aggressive, the retail registrars compliant).
//
//	dropstorm -names 16 -services DropCatch,SnapNames,Pheenix
//	dropstorm -transport inproc -names 64 -scale 0.5
//	dropstorm -names 24 -zones "nordic=se+nu:instant@19:05;alt=org:random"
//
// With -zones the storm federates: contested names spread round-robin over
// every hosted TLD, each zone drops concurrently under its own release
// policy (an instant-release zone lets its whole group go at one offset —
// the simultaneous-drop case), and the FCFS audit runs per zone as well as
// globally.
//
// The run exits non-zero if the registry's FCFS guarantee is violated: any
// name acked to more than one client, any acked create missing from the
// store (a lost ack), or any dropped name left unclaimed. CI uses this as
// the storm smoke test.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"dropzero/internal/epp"
	"dropzero/internal/feed"
	"dropzero/internal/journal"
	"dropzero/internal/model"
	"dropzero/internal/node"
	"dropzero/internal/registrars"
	"dropzero/internal/registry"
	"dropzero/internal/simtime"
	"dropzero/internal/storm"
	"dropzero/internal/zone"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dropstorm: ")

	nNames := flag.Int("names", 16, "contested pending-delete names to drop")
	services := flag.String("services", "DropCatch,SnapNames,Pheenix,GoDaddy",
		"comma-separated services to storm with (see internal/registrars)")
	transport := flag.String("transport", "tcp", "EPP transport: tcp or inproc")
	scale := flag.Float64("scale", 0.25, "session-pool scale factor applied to each service's calibrated spec")
	dropSpacing := flag.Duration("drop-spacing", 25*time.Millisecond, "gap between consecutive deletions")
	dropStart := flag.Duration("drop-start", 250*time.Millisecond, "first deletion instant after storm start")
	burst := flag.Float64("burst", 20, "per-accreditation create token burst")
	rate := flag.Float64("rate", 5, "per-accreditation create token refill per second")
	seed := flag.Int64("seed", 1, "ecosystem seed")
	subscribers := flag.Int("subscribers", 16, "live event-feed subscribers riding along with the storm (0 = no feed)")
	zoneSpecs := flag.String("zones", "", "federate the storm: extra zones as semicolon-separated name=tld[+tld...]:policy[@HH:MM] specs; names spread round-robin over every hosted TLD")
	verbose := flag.Bool("v", false, "print the per-profile attempt breakdown")
	flag.Parse()

	if err := run(*nNames, *services, *transport, *zoneSpecs, *scale, *dropSpacing, *dropStart, *burst, *rate, *seed, *subscribers, *verbose); err != nil {
		log.Fatal(err)
	}
}

func run(nNames int, services, transport, zoneSpecs string, scale float64,
	dropSpacing, dropStart time.Duration, burst, rate float64, seed int64, subscribers int, verbose bool) error {
	day := simtime.Day{Year: 2018, Month: time.March, Dom: 8}
	clock := simtime.NewSimClock(day.At(18, 59, 0))
	rng := rand.New(rand.NewSource(seed))
	dir := registrars.BuildDirectory(rng)
	if transport != "tcp" && transport != "inproc" {
		return fmt.Errorf("unknown transport %q (want tcp or inproc)", transport)
	}
	// A memory-only node: the feed hub is the whole commit stack, and the
	// subscribers below read its /events.
	cfg := node.Config{
		Scope: "127.0.0.1:0", Clock: clock, Credentials: dir.Credentials(), CreateBurst: burst, CreateRate: rate,
		Zones: zoneSpecs, Registrars: dir.Registrars(),
		Boot: func(store *registry.Store, _ *journal.Journal, _ journal.Recovery) error {
			// The contested names, pendingDelete and due today. A federated
			// storm spreads them round-robin over every hosted TLD so each
			// zone gets a group to drop.
			tlds := []model.TLD{"com"}
			if len(store.Zones()) > 1 {
				tlds = tlds[:0]
				for _, z := range store.Zones() {
					tlds = append(tlds, z.TLDs...)
				}
			}
			sponsor := dir.Accreditations(registrars.SvcOther)[0]
			for i := 0; i < nNames; i++ {
				updated := day.AddDays(-35).At(6, 30, i%60)
				if _, err := store.SeedAt(fmt.Sprintf("contested%04d.%s", i, tlds[i%len(tlds)]), sponsor, updated.AddDate(-2, 0, 0), updated,
					updated.AddDate(0, 0, -30), model.StatusPendingDelete, day); err != nil {
					return err
				}
			}
			return nil
		},
	}
	if transport == "tcp" {
		cfg.EPP = "127.0.0.1:0"
	}
	n, err := node.Start(cfg)
	if err != nil {
		return err
	}
	defer n.Close()
	dial := func() (*epp.Client, error) { return n.EPP.ConnectInProc(), nil }
	if addr := n.Addr("EPP"); addr != "" {
		dial = func() (*epp.Client, error) { return epp.Dial(addr) }
	}

	// The event-feed pool: live SSE subscribers on the pending-delete list's
	// /events, watching the Drop while the create storm rages, so the report
	// can print fan-out lag (mutation append to subscriber receipt).
	ctx, subCancel := context.WithCancel(context.Background())
	defer subCancel()
	var subWG sync.WaitGroup
	for i := 0; i < subscribers; i++ {
		sub, err := feed.Subscribe(ctx, nil, "http://"+n.Addr("pending-delete list"), -1, nil)
		if err != nil {
			return fmt.Errorf("feed subscriber %d: %w", i, err)
		}
		subWG.Add(1)
		go func() {
			defer subWG.Done()
			defer sub.Close()
			for _, err := sub.Next(); err == nil; _, err = sub.Next() {
			}
		}()
	}

	// Plan each zone's Drop on the storm's timeline: a paced zone releases
	// its names in its policy's order, dropSpacing apart from dropStart past
	// 19:00; an instant zone releases its whole group at dropStart (the
	// simultaneous-drop case the per-zone FCFS audit is about). Every zone,
	// the default one included, drops concurrently.
	base := day.At(19, 0, 0)
	var drop []registry.Scheduled
	runnerOf := make(map[model.TLD]*registry.DropRunner)
	for _, z := range n.Store.Zones() {
		runner, err := registry.NewZoneDropRunner(n.Store, z)
		if err != nil {
			return err
		}
		for i, sc := range runner.Schedule(day, rng) {
			off := dropStart
			if z.Policy != zone.PolicyInstant {
				off += time.Duration(i) * dropSpacing
			}
			sc.Time = base.Add(off)
			drop = append(drop, sc)
			runnerOf[sc.TLD] = runner
		}
	}
	if len(drop) != nNames {
		return fmt.Errorf("scheduled %d deletions, want %d", len(drop), nNames)
	}
	clock.Set(base)

	var profiles []storm.ClientProfile
	for _, svc := range strings.Split(services, ",") {
		svc = strings.TrimSpace(svc)
		if svc == "" {
			continue
		}
		accreds := dir.Accreditations(svc)
		if len(accreds) == 0 {
			return fmt.Errorf("unknown service %q", svc)
		}
		spec := registrars.StormSpecOf(svc)
		sessions := min(max(int(float64(spec.Sessions)*scale), 1), len(accreds))
		profiles = append(profiles, storm.ClientProfile{
			Service:           svc,
			Accreditations:    accreds[:sessions],
			Sessions:          sessions,
			Schedule:          spec.Schedule,
			Compliant:         spec.Compliant,
			PerDomainInFlight: spec.PerDomainInFlight,
		})
	}
	if len(profiles) == 0 {
		return fmt.Errorf("no services selected")
	}

	// The registry runs on a SimClock so the seeded lifecycle state and the
	// Drop schedule are deterministic, but the storm itself happens in real
	// time: advance virtual time at wall pace for the storm's duration so
	// the per-accreditation token buckets refill at -rate tokens/second the
	// way they would against a real clock. Nothing else Sets the clock while
	// the storm runs (DropRunner.Apply only purges), so the monotonic Set is
	// race-free.
	stormStart, wallStart := clock.Now(), time.Now()
	stopTick, tickDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(tickDone)
		for tick := time.NewTicker(5 * time.Millisecond); ; {
			select {
			case <-stopTick:
				tick.Stop()
				return
			case <-tick.C:
				clock.Set(stormStart.Add(time.Since(wallStart)))
			}
		}
	}()
	defer func() { close(stopTick); <-tickDone }()

	fmt.Printf("storming %d names over %s with %d services across %d zones\n",
		nNames, transport, len(profiles), len(n.Store.Zones()))
	rep, err := storm.Run(storm.Config{
		Dial:       dial,
		Credential: dir.Credential,
		Drop:       drop,
		Release: func(batch []registry.Scheduled) error {
			for _, sc := range batch {
				if _, err := runnerOf[sc.TLD].Apply(sc); err != nil {
					return err
				}
			}
			return nil
		},
		Profiles: profiles,
		Zones:    n.Store.Zones(),
	})
	if err != nil {
		return err
	}
	if subscribers > 0 {
		// Let the last purge's broadcast land before freezing the histogram,
		// then hang up the pool.
		n.Hub().Quiesce()
		rep.AttachFanoutLag(n.Hub().FanoutLag())
		subCancel()
		subWG.Wait()
	}
	printReport(rep, verbose)
	if len(rep.ByZone) > 1 {
		fmt.Printf("per-zone FCFS audit:\n")
		for _, g := range rep.ByZone {
			z, _ := n.Store.ZoneByName(g.Key)
			fmt.Printf("  %-10s %-8s names=%-4d attempts=%-6d wins=%-4d multiAcks=%d unclaimed=%d create p99.9=%v\n",
				g.Key, z.Policy, g.Names, g.Attempts, g.Wins, g.MultiAcks, g.Unclaimed,
				g.Creates.P999().Round(time.Microsecond))
		}
	}

	// The FCFS audit decides the exit code — per zone first, then globally.
	var failures []string
	for _, g := range rep.ByZone {
		if g.MultiAcks > 0 || g.Unclaimed > 0 {
			failures = append(failures, fmt.Sprintf("zone %q: %d multi-acks, %d unclaimed", g.Key, g.MultiAcks, g.Unclaimed))
		}
	}
	if len(rep.DropErrors) > 0 {
		failures = append(failures, fmt.Sprintf("%d drop failures: %v", len(rep.DropErrors), rep.DropErrors))
	}
	if len(rep.Unclaimed) > 0 {
		failures = append(failures, fmt.Sprintf("%d dropped names unclaimed: %v", len(rep.Unclaimed), rep.Unclaimed))
	}
	if err := rep.VerifyWins(n.Store); err != nil {
		failures = append(failures, err.Error())
	}
	if rep.Creates.Errors > 0 {
		failures = append(failures, fmt.Sprintf("%d transport/unexpected errors", rep.Creates.Errors))
	}
	if err := n.Close(); err != nil {
		failures = append(failures, err.Error())
	}
	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "dropstorm: FAIL\n")
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "  %s\n", f)
		}
		os.Exit(1)
	}
	fmt.Printf("PASS: %d names, exactly one winner each, zero lost acks\n", len(rep.Winners))
	return nil
}

func printReport(rep *storm.Report, verbose bool) {
	c := rep.Creates
	fmt.Printf("offered %.0f req/s, achieved %.0f req/s (%d creates sent, max dispatch lag %v)\n",
		rep.OfferedRPS, rep.AchievedRPS, c.Requests, rep.MaxLag.Round(time.Microsecond))
	fmt.Printf("create latency p50=%v p95=%v p99=%v p99.9=%v\n",
		c.P50().Round(time.Microsecond), c.P95().Round(time.Microsecond),
		c.P99().Round(time.Microsecond), c.P999().Round(time.Microsecond))

	codes := make([]int, 0, len(c.CodeCounts))
	for code := range c.CodeCounts {
		codes = append(codes, code)
	}
	sort.Ints(codes)
	fmt.Printf("result codes:")
	for _, code := range codes {
		fmt.Printf(" %d×%d", code, c.CodeCounts[code])
	}
	fmt.Println()

	svcs := make([]string, 0, len(rep.WinsByService))
	for svc := range rep.WinsByService {
		svcs = append(svcs, svc)
	}
	sort.Slice(svcs, func(i, j int) bool {
		return rep.WinsByService[svcs[i]] > rep.WinsByService[svcs[j]]
	})
	fmt.Printf("FCFS wins by service:")
	for _, svc := range svcs {
		fmt.Printf(" %s=%d", svc, rep.WinsByService[svc])
	}
	fmt.Printf(" (across %d accreditations)\n", len(rep.WinsByAccreditation))

	delays := rep.WinDelays()
	if n := len(delays); n > 0 {
		fmt.Printf("re-registration delay: min=%v median=%v max=%v\n",
			delays[0].Round(time.Microsecond), delays[n/2].Round(time.Microsecond),
			delays[n-1].Round(time.Microsecond))
	}
	if lag := rep.FanoutLag; lag != nil {
		fmt.Printf("fan-out lag (%d deliveries) p50=%v p95=%v p99=%v peak=%v\n",
			lag.Requests, lag.P50().Round(time.Microsecond), lag.P95().Round(time.Microsecond),
			lag.P99().Round(time.Microsecond), lag.Percentile(100).Round(time.Microsecond))
	}
	if verbose {
		for _, p := range rep.Profiles {
			mode := "abusive"
			if p.Compliant {
				mode = "compliant"
			}
			fmt.Printf("  %-12s %-9s attempts=%-6d wins=%-4d rateLimited=%-5d skipped=%-5d settled=%-6d errors=%d\n",
				p.Service, mode, p.Attempts, p.Wins, p.RateLimited, p.Skipped, p.Settled, p.Errors)
		}
	}
}
