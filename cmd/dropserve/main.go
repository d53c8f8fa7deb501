// Command dropserve stands up the whole registry ecosystem on localhost —
// EPP, RDAP, WHOIS, zone files, the pending-delete list service with
// its delta and SSE feed, and the maliciousness oracle — over a seeded
// domain population, and keeps the lifecycle engine ticking against the
// real clock. Poke at the protocol surfaces with the examples or plain
// curl/netcat:
//
//	dropserve -epp :7700 -rdap :7701 -whois :7702 -scope :7703 -oracle :7704
//	curl http://127.0.0.1:7701/domain/keyworddeal0.com
//	printf 'keyworddeal0.com\r\n' | nc 127.0.0.1 7702
package main

import (
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"log"
	"math/rand"
	_ "net/http/pprof" // registers /debug/pprof on the DefaultServeMux served by -debug
	"os"
	"os/signal"
	"syscall"
	"time"

	"dropzero/internal/dropscope"
	"dropzero/internal/journal"
	"dropzero/internal/model"
	"dropzero/internal/names"
	"dropzero/internal/node"
	"dropzero/internal/registrars"
	"dropzero/internal/registry"
	"dropzero/internal/simtime"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dropserve: ")

	eppAddr := flag.String("epp", "127.0.0.1:7700", "EPP listen address")
	rdapAddr := flag.String("rdap", "127.0.0.1:7701", "RDAP listen address")
	whoisAddr := flag.String("whois", "127.0.0.1:7702", "WHOIS listen address")
	scopeAddr := flag.String("scope", "127.0.0.1:7703", "pending-delete list listen address")
	oracleAddr := flag.String("oracle", "127.0.0.1:7704", "maliciousness oracle listen address")
	zoneAddr := flag.String("zonefile", "127.0.0.1:7706", "zone-file access listen address")
	debugAddr := flag.String("debug", "", "debug listen address serving net/http/pprof and expvar (empty = disabled)")
	population := flag.Int("population", 2000, "number of seeded domains")
	seed := flag.Int64("seed", 1, "population seed")
	shards := flag.Int("shards", 0, "registry store shard count (0 = auto from GOMAXPROCS, 1 = legacy single lock; behaviour is identical at any setting)")
	dataDir := flag.String("datadir", "dropserve-data", "durability directory (WAL + snapshots); registry state is recovered from it on start (empty = memory only)")
	durability := flag.String("durability", "async", "journal mode: off, async (group-commit fsync in the background) or sync (fsync before every EPP ack)")
	snapshotEvery := flag.Duration("snapshot-every", 5*time.Minute, "interval between background registry snapshots")
	replListen := flag.String("listen-replication", "", "replication listen address: stream snapshot + WAL to followers (requires a journal)")
	replicateFrom := flag.String("replicate-from", "", "run as a read replica of the primary at this replication address (requires -datadir; EPP is read-only until SIGUSR1 promotes)")
	syncFollowers := flag.Int("sync-followers", 0, "semi-synchronous replication: EPP acks additionally wait for this many follower acknowledgements (primary only)")
	zoneSpecs := flag.String("zones", "", "extra zones beside the default .com/.net one, as semicolon-separated name=tld[+tld...]:policy[@HH:MM] specs (e.g. \"nordic=se+nu:instant@04:00;alt=org:random\"); primary only")
	flag.Parse()

	mode, err := journal.ParseMode(*durability)
	if err != nil {
		log.Fatal(err)
	}
	if *snapshotEvery <= 0 {
		log.Fatal("-snapshot-every must be positive")
	}

	clock := simtime.RealClock{}
	rng := rand.New(rand.NewSource(*seed))
	dir := registrars.BuildDirectory(rng)
	n, err := node.Start(node.Config{
		EPP: *eppAddr, RDAP: *rdapAddr, WHOIS: *whoisAddr, Scope: *scopeAddr, Oracle: *oracleAddr,
		ZoneFile: *zoneAddr, Debug: *debugAddr, Replication: *replListen, ReplicateFrom: *replicateFrom,
		DataDir: *dataDir, Mode: mode, Clock: clock, Shards: *shards, SyncFollowers: *syncFollowers,
		Credentials: dir.Credentials(), CreateBurst: 20, CreateRate: 5,
		Zones: *zoneSpecs, Registrars: dir.Registrars(), Logf: log.Printf,
		// On a fresh directory, the seeded population, journaled.
		Boot: func(store *registry.Store, _ *journal.Journal, rec journal.Recovery) error {
			if !rec.Fresh() {
				t := rec.Timings
				fmt.Printf("recovered %d domains from %s (snapshot seq %d, %d WAL records replayed) in %v\n"+
					"recovery phases: snapshot read %v + decode %v + install %v (%d bytes), WAL replay %v (%.0f records/sec)\n",
					store.Count(), *dataDir, rec.SnapshotSeq, rec.ReplayedRecords, t.Total.Round(time.Millisecond),
					t.SnapshotRead.Round(time.Millisecond), t.SnapshotDecode.Round(time.Millisecond),
					t.SnapshotInstall.Round(time.Millisecond), rec.SnapshotBytes,
					t.Replay.Round(time.Millisecond), rec.ReplayRPS())
				return nil
			}
			if err := seedPopulation(store, dir, rng, *population, clock.Now(), []model.TLD{"com"}); err != nil {
				return err
			}
			// Extra zones get their own smaller populations from derived
			// seeds, so every surface has something to serve per zone
			// without perturbing the core population's RNG stream.
			for zi, z := range store.Zones()[1:] {
				zrng := rand.New(rand.NewSource(*seed + int64(zi+1)*1000))
				if err := seedPopulation(store, dir, zrng, *population/4, clock.Now(), z.TLDs); err != nil {
					return err
				}
			}
			return nil
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, l := range n.Listeners {
		fmt.Printf("%-20s %s\n", l.Name+":", l.Addr)
	}
	if f := n.Follower; f != nil {
		fmt.Printf("replica: following %s from seq %d (promote with SIGUSR1)\n", *replicateFrom, f.AppliedSeq())
	}
	if *syncFollowers > 0 {
		fmt.Printf("semi-sync: EPP acks wait for %d follower acknowledgement(s)\n", *syncFollowers)
	}
	expvar.Publish("dropserve", expvar.Func(n.Status)) // served at /debug/vars under -debug

	fmt.Printf("registry live: %d domains, %d accreditations (%d store shards)\n",
		n.Store.Count(), len(dir.Registrars()), n.Store.ShardCount())
	if zs := n.Store.Zones(); len(zs) > 1 {
		for _, z := range zs {
			fmt.Printf("zone %-10s %-8s drop %02d:%02d, TLDs %v\n",
				z.Name, z.Policy, z.Drop.StartHour, z.Drop.StartMinute, z.TLDs)
		}
	}
	counts := n.Store.StatusCounts()
	fmt.Printf("by status: active=%d autoRenew=%d redemption=%d pendingDelete=%d\n",
		counts[model.StatusActive], counts[model.StatusAutoRenew],
		counts[model.StatusRedemption], counts[model.StatusPendingDelete])
	fmt.Printf("EPP login example: registrar %d, token %q\n",
		dir.Accreditations(registrars.Svc1API)[0],
		dir.Credential(dir.Accreditations(registrars.Svc1API)[0]))

	// One event loop. Periodic snapshots bound the WAL replay a restart
	// pays. One lifecycle engine per hosted zone moves domains through
	// expiration; a replica's lifecycle is the primary's mutation stream —
	// ticking it locally would fork history — so it ticks once promoted,
	// when its EPP stops being read-only.
	lcs := zoneLifecycles(n.Store)
	snapTicker := time.NewTicker(*snapshotEvery)
	ticker := time.NewTicker(30 * time.Second)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGUSR1)
	for {
		select {
		case <-snapTicker.C:
			jnl := n.Journal()
			if jnl == nil {
				continue
			}
			// Async mode acks before durability, so a poisoned WAL is
			// invisible to EPP clients: surface it here. The snapshot still
			// runs; it persists the state independently of the log.
			if err := jnl.Err(); err != nil {
				log.Printf("journal: WAL failed, new mutations are NOT durable: %v", err)
			}
			if err := jnl.Snapshot(nil); err != nil {
				log.Printf("snapshot: %v", err)
			}
		case <-ticker.C:
			if n.EPP.ReadOnly() {
				continue
			}
			transitions := 0
			for _, lc := range lcs {
				transitions += lc.Tick(clock.Now())
			}
			if transitions > 0 {
				log.Printf("lifecycle: %d transitions", transitions)
			}
		case s := <-sig:
			if s == syscall.SIGUSR1 {
				// Promotion drill. The operator fences the old primary.
				if !n.EPP.ReadOnly() {
					log.Printf("SIGUSR1: not an unpromoted replica; ignoring")
					continue
				}
				if err := n.Promote(); err != nil {
					log.Fatalf("promote: %v", err)
				}
				// Zones that arrived through the stream need their own
				// lifecycle engines now that this process drives time.
				lcs = zoneLifecycles(n.Store)
				log.Printf("promoted to primary at seq %d; EPP writes enabled", n.Journal().LastSeq())
				continue
			}
			log.Printf("%v: shutting down", s)
			err := n.Close()
			doc, _ := json.Marshal(n.Status()) // maps, strings and finite numbers only: cannot fail
			log.Printf("status: %s", doc)
			if err != nil {
				log.Print(err)
			}
			return
		}
	}
}

// zoneLifecycles builds one lifecycle engine per hosted zone: the default
// .com/.net one under the base parameters plus one per extra zone under its
// own, so federated domains transition on their zone's clocks.
func zoneLifecycles(store *registry.Store) []*registry.Lifecycle {
	lcs := []*registry.Lifecycle{registry.NewLifecycle(store, registry.DefaultLifecycleConfig())}
	for _, z := range store.Zones()[1:] {
		lcs = append(lcs, registry.NewZoneLifecycle(store, z))
	}
	return lcs
}

// seedPopulation creates a mix of active, expiring and pending-delete
// domains so every protocol surface has something to serve, round-robining
// the names over tlds (no RNG draw per name — a single-TLD call consumes
// exactly the pre-federation stream). The first refused seed fails the boot.
func seedPopulation(store *registry.Store, dir *registrars.Directory, rng *rand.Rand, n int, now time.Time, tlds []model.TLD) error {
	gen := names.NewGenerator(rng)
	sponsors := append(dir.Accreditations(registrars.SvcGoDaddy), dir.Accreditations(registrars.SvcOther)...)
	today := simtime.DayOf(now)
	for i := 0; i < n; i++ {
		name := gen.Next().Label + "." + string(tlds[i%len(tlds)])
		sponsor := sponsors[rng.Intn(len(sponsors))]
		var err error
		switch i % 4 {
		case 0: // active
			created := now.AddDate(-1-rng.Intn(5), 0, -rng.Intn(300))
			_, err = store.SeedAt(name, sponsor, created, created, created.AddDate(1+rng.Intn(5), 0, 0), model.StatusActive, simtime.Day{})
		case 1: // recently expired (autoRenew)
			created := now.AddDate(-2, 0, -rng.Intn(30))
			expiry := now.AddDate(0, 0, -rng.Intn(20))
			_, err = store.SeedAt(name, sponsor, created, expiry, expiry.AddDate(1, 0, 0), model.StatusAutoRenew, simtime.Day{})
		case 2: // redemption
			created := now.AddDate(-3, 0, 0)
			updated := now.AddDate(0, 0, -rng.Intn(25))
			_, err = store.SeedAt(name, sponsor, created, updated, updated.AddDate(0, 0, -35), model.StatusRedemption, simtime.Day{})
		default: // pendingDelete within the published window
			created := now.AddDate(-2, 0, 0)
			updated := now.AddDate(0, 0, -33)
			_, err = store.SeedAt(name, sponsor, created, updated, updated.AddDate(0, 0, -35),
				model.StatusPendingDelete, today.AddDays(rng.Intn(dropscope.LookaheadDays)))
		}
		if err != nil {
			return fmt.Errorf("seed %s: %w", name, err)
		}
	}
	return nil
}
