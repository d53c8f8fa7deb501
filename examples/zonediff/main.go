// Zonediff: the measurement methodology this paper *replaced*. Prior work
// (Game of Registrars, WHOIS Lost in Translation) detected deletions and
// re-registrations by diffing consecutive daily zone files — one-day time
// resolution. This example runs that channel against the simulated registry
// and shows what it can and cannot see:
//
//   - a name deleted during the Drop and caught in the same second never
//     leaves the zone between snapshots, so the diff reports it as a plain
//     "birth" with no hint of the drop-catch race;
//
//   - a name that nobody catches shows up in no diff at all (it already left
//     the zone when the registrar deleted it, ~35 days earlier);
//
//   - nothing in the channel distinguishes a 0-second catch from a
//     23-hour-later pickup — the gap the paper's RDAP-timestamp method and
//     minimum-envelope model close.
//
// For contrast, the same run is observed through the registry's event feed
// (the pending-delete list's /deltas and /events endpoints): a live SSE
// subscriber sees every purge and every re-registration as an individual
// timestamped operation, pushed within milliseconds of the commit — the
// resolution the zone-diff methodology structurally cannot reach.
//
//	go run ./examples/zonediff
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"time"

	"dropzero/internal/feed"
	"dropzero/internal/journal"
	"dropzero/internal/model"
	"dropzero/internal/names"
	"dropzero/internal/node"
	"dropzero/internal/registrars"
	"dropzero/internal/registry"
	"dropzero/internal/simtime"
	"dropzero/internal/zonefile"
)

func main() {
	log.SetFlags(0)
	rng := rand.New(rand.NewSource(17))
	day := simtime.Day{Year: 2018, Month: time.January, Dom: 25}
	clock := simtime.NewSimClock(day.At(8, 0, 0))

	dir := registrars.BuildDirectory(rng)
	var dropping []string
	// A memory-only registry node. Its event feed — the replacement channel
	// — taps the store's mutation stream and serves cursor-addressed delta
	// segments plus an SSE push endpoint from the pending-delete list
	// server; its zone access program serves each day's snapshot over HTTP.
	n, err := node.Start(node.Config{Scope: "127.0.0.1:0", ZoneFile: "127.0.0.1:0", Clock: clock, Registrars: dir.Registrars(),
		// Population: a steady base of registered domains plus one day of
		// pending deletions.
		Boot: func(store *registry.Store, _ *journal.Journal, _ journal.Recovery) error {
			gen := names.NewGenerator(rng)
			sponsors := dir.Accreditations(registrars.SvcOther)
			for i := 0; i < 200; i++ {
				g := gen.Next()
				if _, err := store.Create(g.Label+".com", sponsors[rng.Intn(len(sponsors))], 1+rng.Intn(5)); err != nil {
					return err
				}
			}
			lc := registry.DefaultLifecycleConfig()
			for i := 0; i < 60; i++ {
				g := gen.Next()
				sponsor := sponsors[rng.Intn(len(sponsors))]
				updated := lc.BatchInstant(day.AddDays(-35), sponsor)
				name := g.Label + ".com"
				if _, err := store.SeedAt(name, sponsor, updated.AddDate(-2, 0, 0), updated,
					updated.AddDate(0, 0, -35), model.StatusPendingDelete, day); err != nil {
					return err
				}
				dropping = append(dropping, name)
			}
			return nil
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer n.Close()
	store, hub := n.Store, n.Hub()
	feedBase := "http://" + n.Addr("pending-delete list")
	snapshot := func() map[string]bool {
		z, err := zonefile.Fetch(nil, "http://"+n.Addr("zone files"), model.COM)
		if err != nil {
			log.Fatal(err)
		}
		return z
	}

	dayBefore := snapshot()
	fmt.Printf("zone snapshot before the Drop: %d delegated names\n", len(dayBefore))
	fmt.Printf("(the %d pendingDelete names are already gone from the zone)\n\n", len(dropping))

	// A live subscriber attaches before the Drop: its cursor marks the last
	// generation it has seen, and everything after arrives as pushed deltas.
	hub.Quiesce()
	preDrop := hub.Cursor()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sub, err := feed.Subscribe(ctx, nil, feedBase, int64(preDrop), nil)
	if err != nil {
		log.Fatal(err)
	}
	defer sub.Close()

	// The Drop, with a market deciding re-registrations.
	clock.Set(day.At(19, 0, 0))
	runner := registry.NewDropRunner(store, registry.DropConfig{StartHour: 19, BaseRatePerSec: 3, RateJitter: 0.2})
	events, err := runner.Run(day, rng)
	if err != nil {
		log.Fatal(err)
	}
	market := registrars.NewMarket(dir, registrars.DefaultMarketConfig(), rng)
	dropEnd := registry.EndTime(events)
	caught0s, caughtLate := 0, 0
	for _, ev := range events {
		claim := market.Decide(registrars.Lot{
			Name: ev.Name(), Value: 0.8, AgeYears: 3, // everything desirable, for the demo
			DeletedAt: ev.Time(), DropEnd: dropEnd,
		})
		if claim == nil || claim.Delay > 4*time.Hour {
			continue
		}
		if _, err := store.CreateAt(ev.Name(), claim.RegistrarID, 1, ev.Time().Add(claim.Delay)); err != nil {
			log.Fatal(err)
		}
		if claim.Delay == 0 {
			caught0s++
		} else {
			caughtLate++
		}
	}
	fmt.Printf("ground truth: %d deletions; %d caught at 0 s, %d re-registered later\n\n",
		len(events), caught0s, caughtLate)

	// What the event feed saw: drain the live subscriber until its cursor
	// reaches the hub's, then pull the same window as one delta fetch and
	// count operations.
	hub.Quiesce()
	target := hub.Cursor()
	batches, pushed := 0, 0
	for sub.Cursor() < target {
		ev, err := sub.Next()
		if err != nil {
			log.Fatal(err)
		}
		batches++
		pushed += ev.Records
	}
	resp, err := http.Get(fmt.Sprintf("%s/deltas?since=%d", feedBase, preDrop))
	if err != nil {
		log.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		log.Fatal(err)
	}
	ops, err := feed.ParseOps(body)
	if err != nil {
		log.Fatal(err)
	}
	var purges, catches int
	for _, op := range ops {
		switch op.Kind {
		case feed.OpPurge:
			purges++
		case feed.OpRereg:
			catches++
		}
	}
	fmt.Printf("event feed (live SSE from cursor %d): %d ops pushed in %d batches\n",
		preDrop, pushed, batches)
	fmt.Printf("  %d '!' purge ops and %d '*' re-registration ops, in commit order,\n", purges, catches)
	fmt.Println("  each batch stamped at millisecond resolution — the drop-catch race is")
	fmt.Println("  directly observable, no daily snapshot diffing required.")
	fmt.Println()

	// Next day's snapshot and the diff — all the prior-work channel sees.
	clock.Set(day.Next().At(8, 0, 0))
	dayAfter := snapshot()
	added, removed := zonefile.Diff(dayBefore, dayAfter)
	fmt.Printf("consecutive-day zone diff: %d added, %d removed\n", len(added), len(removed))
	fmt.Println("  → every drop-catch and every delayed pickup looks identical here: a name")
	fmt.Println("    that appeared some time within 24 hours. The re-registration *delay* —")
	fmt.Println("    the paper's central measurement — is invisible at this resolution.")
}
