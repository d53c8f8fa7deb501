// Dropcatcher: a "home-grown" drop-catch script in the style of DropKing
// (§1 of the paper) — the kind of tool registrants use to avoid drop-catch
// service fees. It talks to the registry over the real wire protocols:
//
//  1. download today's pending-delete list from the DomainScope-like
//     service and pick attractive names (keywords, short labels);
//  2. log in to EPP through a reseller accreditation;
//  3. after the Drop, sweep its targets with `create` commands under the
//     accreditation's rate limit.
//
// A professional drop-catch service backordered half of the same names and
// holds them from their deletion instant (booked straight into the store:
// internal/storm is where EPP races are run); the script picks up what is
// left — exactly the "seconds to minutes later" behaviour the paper measures
// for 1API.
//
// Zone membership is read from the registry's zone files. The zone pulls a
// name when it enters redemption, weeks before the Drop, and the deletion
// itself changes nothing there: watching the zone cannot reveal the deletion
// instant, which is why drop-catchers race blind at the registry.
//
//	go run ./examples/dropcatcher
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"sort"
	"time"

	"dropzero/internal/dropscope"
	"dropzero/internal/epp"
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
	shards := flag.Int("shards", 0, "registry store shard count (0 = auto from GOMAXPROCS, 1 = legacy single lock; the catch plays out identically at any setting)")
	flag.Parse()
	rng := rand.New(rand.NewSource(7))

	// --- Registry side -------------------------------------------------
	day := simtime.Day{Year: 2018, Month: time.January, Dom: 18}
	clock := simtime.NewSimClock(day.At(9, 0, 0))
	dir := registrars.BuildDirectory(rng)
	n, err := node.Start(node.Config{
		EPP: "127.0.0.1:0", Scope: "127.0.0.1:0", ZoneFile: "127.0.0.1:0", Clock: clock, Shards: *shards,
		Credentials: dir.Credentials(), Registrars: dir.Registrars(),
		CreateBurst: 5,   // the resource that makes accreditations precious:
		CreateRate:  0.5, // five speculative creates, then a slow refill
		Boot: func(store *registry.Store, _ *journal.Journal, _ journal.Recovery) error {
			seedPendingDeletes(store, dir, rng, day, 120)
			return nil
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer n.Close()
	store, eppAddr, scopeAddr := n.Store, n.Addr("EPP"), n.Addr("pending-delete list")
	zoneURL := "http://" + n.Addr("zone files")

	// --- Our home-grown catcher ----------------------------------------
	// One reseller accreditation (1API-style) and its EPP session.
	myID := dir.Accreditations(registrars.Svc1API)[0]
	client, err := epp.Dial(eppAddr)
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	if err := client.Login(myID, dir.Credential(myID)); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("logged in to EPP %s as IANA %d\n", eppAddr, myID)

	// Step 1: shop the pending-delete list for keyword-rich names.
	scope, err := dropscope.NewClient("http://"+scopeAddr, nil)
	if err != nil {
		log.Fatal(err)
	}
	entries, err := scope.Fetch(context.Background(), day)
	if err != nil {
		log.Fatal(err)
	}
	targets := pickTargets(entries, day, 15)
	fmt.Printf("pending-delete list has %d names; backordering %d keyword-rich targets\n",
		len(entries), len(targets))

	// Sanity check on the .com zone file: pendingDelete names are already
	// out of the zone (they were pulled when the registrar deleted them ~35
	// days ago), so no target may be in it before the Drop.
	before, err := zonefile.Fetch(nil, zoneURL, model.COM)
	if err != nil {
		log.Fatal(err)
	}
	for _, name := range targets {
		if before[name] {
			log.Fatalf("%s still in the zone; not actually pending delete", name)
		}
	}
	fmt.Println("zone check: no target in the .com zone, as expected for pendingDelete names")

	// Step 2: the professional competition backorders the best names too.
	proIDs := dir.Accreditations(registrars.SvcDropCatch)

	// Step 3: the Drop. The registry deletes in (lastUpdated, ID) order;
	// the pro service wins its backorders in the deletion instant, then we
	// sweep what is left.
	clock.Set(day.At(19, 0, 0))
	runner := registry.NewDropRunner(store, registry.DropConfig{
		StartHour: 19, BaseRatePerSec: 2, RateJitter: 0.3,
	})
	events, err := runner.Run(day, rng)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("the Drop deleted %d domains between %s and %s\n",
		len(events), events[0].Time().Format("15:04:05"), events[len(events)-1].Time().Format("15:04:05"))

	// The pro service instantly re-registers ~half of our targets (it had
	// them backordered and wins the race at the registry).
	deletedAt := make(map[string]time.Time, len(events))
	for _, ev := range events {
		deletedAt[ev.Name()] = ev.Time()
	}
	proWins := 0
	for i, name := range targets {
		if i%2 == 0 {
			continue
		}
		pro := proIDs[rng.Intn(len(proIDs))]
		if _, err := store.CreateAt(name, pro, 1, deletedAt[name]); err == nil {
			proWins++
		}
	}

	// Our script wakes up ~30 s after the last deletion and sweeps its
	// backorder list through the rate-limited EPP session.
	clock.Set(events[len(events)-1].Time().Add(30 * time.Second))
	caught, taken, limited := 0, 0, 0
	var myWins []string
	for _, name := range targets {
		for {
			_, err := client.Create(name, 1)
			switch {
			case err == nil:
				delay := clock.Now().Sub(deletedAt[name])
				fmt.Printf("  caught %-28s %7s after deletion\n", name, delay.Truncate(time.Second))
				caught++
				myWins = append(myWins, name)
			case epp.IsCode(err, epp.CodeRateLimited):
				limited++
				clock.Advance(2 * time.Second) // wait for the bucket to refill
				continue
			case epp.IsCode(err, epp.CodeObjectExists):
				taken++
			default:
				log.Fatalf("create %s: %v", name, err)
			}
			break
		}
		clock.Advance(time.Second)
	}

	// Our catches are registered again — they are back in the zone.
	after, err := zonefile.Fetch(nil, zoneURL, model.COM)
	if err != nil {
		log.Fatal(err)
	}
	for _, name := range myWins {
		if !after[name] {
			log.Fatalf("caught %s but it is not in the zone", name)
		}
	}
	fmt.Printf("\nzone check: all %d of our catches are back in the .com zone\n", len(myWins))
	fmt.Printf("result: caught %d, lost %d to the drop-catch service (it won %d), rate-limited %d times\n",
		caught, taken, proWins, limited)
	fmt.Println("moral: the cheap route gets the leftovers, seconds to minutes late — Figure 6's 1API curve")
}

// seedPendingDeletes populates one deletion day with registrar-batched
// update timestamps, so the Drop has a non-trivial order.
func seedPendingDeletes(store *registry.Store, dir *registrars.Directory, rng *rand.Rand, day simtime.Day, n int) {
	gen := names.NewGenerator(rng)
	sponsors := dir.Accreditations(registrars.SvcOther)
	lc := registry.DefaultLifecycleConfig()
	updatedDay := day.AddDays(-35)
	for i := 0; i < n; i++ {
		g := gen.Next()
		sponsor := sponsors[rng.Intn(len(sponsors))]
		updated := lc.BatchInstant(updatedDay, sponsor)
		expiry := updated.AddDate(0, 0, -35)
		created := expiry.AddDate(-1-rng.Intn(6), 0, 0)
		if _, err := store.SeedAt(g.Label+".com", sponsor, created, updated, expiry,
			model.StatusPendingDelete, day); err != nil {
			log.Fatal(err)
		}
	}
}

// pickTargets selects the most keyword-rich names deleting today.
func pickTargets(entries []dropscope.Entry, day simtime.Day, n int) []string {
	type scored struct {
		name  string
		score int
	}
	var todays []scored
	for _, e := range entries {
		if e.DeleteDay() != day {
			continue
		}
		s := 3*names.KeywordCount(e.Name) + names.DictionaryCount(e.Name)
		if len(names.Label(e.Name)) <= 10 {
			s++
		}
		todays = append(todays, scored{e.Name, s})
	}
	sort.SliceStable(todays, func(i, j int) bool { return todays[i].score > todays[j].score })
	out := make([]string, 0, n)
	for i := 0; i < len(todays) && i < n; i++ {
		out = append(out, todays[i].name)
	}
	return out
}
