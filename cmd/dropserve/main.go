// Command dropserve stands up the whole registry ecosystem on localhost —
// EPP, RDAP, WHOIS, DNS, zone files, the pending-delete list service with
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
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the DefaultServeMux served by -debug
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"dropzero/internal/dns"
	"dropzero/internal/dropscope"
	"dropzero/internal/epp"
	"dropzero/internal/feed"
	"dropzero/internal/journal"
	"dropzero/internal/loadgen"
	"dropzero/internal/model"
	"dropzero/internal/names"
	"dropzero/internal/rdap"
	"dropzero/internal/registrars"
	"dropzero/internal/registry"
	"dropzero/internal/repl"
	"dropzero/internal/safebrowsing"
	"dropzero/internal/serve"
	"dropzero/internal/simtime"
	"dropzero/internal/whois"
	"dropzero/internal/zone"
	"dropzero/internal/zonefile"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dropserve: ")

	eppAddr := flag.String("epp", "127.0.0.1:7700", "EPP listen address")
	rdapAddr := flag.String("rdap", "127.0.0.1:7701", "RDAP listen address")
	whoisAddr := flag.String("whois", "127.0.0.1:7702", "WHOIS listen address")
	scopeAddr := flag.String("scope", "127.0.0.1:7703", "pending-delete list listen address")
	oracleAddr := flag.String("oracle", "127.0.0.1:7704", "maliciousness oracle listen address")
	dnsAddr := flag.String("dns", "127.0.0.1:7705", "authoritative DNS listen address (UDP)")
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
	feedRing := flag.Int("feed-ring", 4<<20, "event-feed delta ring capacity in bytes; a cursor that falls off the ring is redirected to the full list")
	feedQueue := flag.Int("feed-queue", 64, "event-feed per-subscriber queue length; a subscriber that overflows it is moved to cursor catch-up")
	zoneSpecs := flag.String("zones", "", "extra zones beside the default .com/.net one, as semicolon-separated name=tld[+tld...]:policy[@HH:MM] specs (e.g. \"nordic=se+nu:instant@04:00;alt=org:random\"); primary only")
	flag.Parse()

	mode, err := journal.ParseMode(*durability)
	if err != nil {
		log.Fatal(err)
	}
	isReplica := *replicateFrom != ""
	if isReplica {
		if *dataDir == "" {
			log.Fatal("-replicate-from requires -datadir (the replica's local shipped-log directory)")
		}
		if *replListen != "" {
			log.Fatal("-listen-replication and -replicate-from are mutually exclusive")
		}
		if *zoneSpecs != "" {
			log.Fatal("-zones is a primary-only flag: a replica learns its zones from the replication stream")
		}
	}
	// Semi-sync promises that no acked create is lost. Without followers to
	// wait for, or under async durability — whose journal hands an EPP ack
	// nothing to wait on — the flag would be accepted and do nothing.
	if *syncFollowers > 0 {
		if *replListen == "" {
			log.Fatal("-sync-followers requires -listen-replication (the followers it waits for connect there)")
		}
		if mode != journal.ModeSync {
			log.Fatal("-sync-followers requires -durability sync: an async journal acks before anything is durable, so no follower would be waited for")
		}
	}
	if *snapshotEvery <= 0 {
		log.Fatal("-snapshot-every must be positive")
	}
	extraZones, err := zone.ParseSpecs(*zoneSpecs)
	if err != nil {
		log.Fatal(err)
	}

	clock := simtime.RealClock{}
	rng := rand.New(rand.NewSource(*seed))
	dir := registrars.BuildDirectory(rng)
	store := registry.NewStoreWithShards(clock, *shards)

	// Durability and replication roles. A replica never opens the journal
	// for writing: its data directory is the follower's shipped log
	// (byte-identical to the primary's segments), promotable to a writing
	// journal on SIGUSR1. A primary boots on the bare journal and attaches
	// its whole commit stack once the boot state is in place. jnlVar is the
	// live writing journal for status(), which reads it from the debug
	// listener while promotion swaps it.
	var (
		jnl       *journal.Journal
		recovered journal.Recovery
		jnlVar    atomic.Pointer[journal.Journal]
		follower  *repl.Follower
		source    *repl.Source
		hub       *feed.Hub
		poll      *epp.PollQueue
		promoted  bool
	)
	if isReplica {
		follower, err = repl.NewFollower(store, repl.FollowerConfig{
			Dir:  *dataDir,
			Addr: *replicateFrom,
			Logf: log.Printf,
		})
		if err != nil {
			log.Fatalf("replication: %v", err)
		}
		follower.Start()
		fmt.Printf("replica: following %s from seq %d (promote with SIGUSR1)\n", *replicateFrom, follower.AppliedSeq())
	} else {
		if *dataDir != "" && mode != journal.ModeOff {
			jnl, recovered, err = journal.Open(store, journal.Options{Dir: *dataDir, Mode: mode})
			if err != nil {
				log.Fatalf("journal: %v", err)
			}
			store.SetJournal(jnl)
			jnlVar.Store(jnl)
			if !recovered.Fresh() {
				t := recovered.Timings
				fmt.Printf("recovered %d domains from %s (snapshot seq %d, %d WAL records replayed) in %v\n",
					store.Count(), *dataDir, recovered.SnapshotSeq, recovered.ReplayedRecords, t.Total.Round(time.Millisecond))
				fmt.Printf("recovery phases: snapshot read %v + decode %v + install %v (%d bytes), WAL replay %v (%.0f records/sec)\n",
					t.SnapshotRead.Round(time.Millisecond), t.SnapshotDecode.Round(time.Millisecond),
					t.SnapshotInstall.Round(time.Millisecond), recovered.SnapshotBytes,
					t.Replay.Round(time.Millisecond), recovered.ReplayRPS())
			}
		} else if *replListen != "" {
			log.Fatal("-listen-replication requires a journal (-datadir plus -durability async or sync)")
		}

		// Boot state, journaled: registrars, the extra zones (before any of
		// their domains; recovered ones are only checked against -zones) and,
		// on a fresh directory, the seeded population. A replica's boot state
		// arrives through the replication stream.
		for _, r := range dir.Registrars() {
			store.AddRegistrar(r)
		}
		if err := store.InstallZones(extraZones); err != nil {
			log.Fatal(err)
		}
		if recovered.Fresh() {
			seedPopulation(store, dir, rng, *population, clock.Now(), []model.TLD{"com"})
			// Extra zones get their own smaller populations from derived
			// seeds, so every surface has something to serve per zone
			// without perturbing the core population's RNG stream.
			for zi, z := range store.ExtraZones() {
				zrng := rand.New(rand.NewSource(*seed + int64(zi+1)*1000))
				seedPopulation(store, dir, zrng, *population/4, clock.Now(), z.TLDs)
			}
		}

		// Event feed: the hub folds the store's mutation stream into the
		// pending-delete list's /deltas and /events, starting from the boot
		// state. Primary only — a replica's mutations arrive through the
		// shipped log, which bypasses the journal hook.
		hub = feed.NewHub(feed.Options{RingBytes: *feedRing, QueueLen: *feedQueue})
		defer hub.Close()
		hub.PrimeFromStore(store)
		hub.SetZones(store.Zones())

		// Replication source: after seeding (bulk history ships via snapshot +
		// segment reuse, not per-record acks), before EPP opens.
		if *replListen != "" {
			source = repl.NewSource(jnl, repl.SourceConfig{SyncFollowers: *syncFollowers, Logf: log.Printf})
			listen("replication", *replListen, source)
			defer source.Close()
		}

		// The commit stack, in the order a mutation passes it: the WAL; under
		// semi-sync the follower quorum, so an EPP ack means "fsynced here AND
		// applied and fsynced on N followers" — the zero-acked-loss failover
		// contract; then the feed. Without a WAL inner stays a nil interface,
		// which feed.Tap skips (a nil *journal.Journal in it would not be nil).
		var inner registry.Journal
		if jnl != nil {
			inner = jnl
		}
		if *syncFollowers > 0 {
			inner = &repl.SyncJournal{J: jnl, S: source}
			fmt.Printf("semi-sync: EPP acks wait for %d follower acknowledgement(s)\n", *syncFollowers)
		}
		store.SetJournal(feed.Tap{Inner: inner, Hub: hub})

		poll = epp.NewPollQueue(clock, 0)
		store.SetObserver(poll)
	}

	eppSrv := epp.NewServer(store, clock, epp.ServerConfig{
		Credentials: dir.Credentials(),
		CreateBurst: 20,
		CreateRate:  5,
		Logf:        log.Printf,
		Poll:        poll,
		ReadOnly:    isReplica,
	})
	listen("EPP", *eppAddr, eppSrv)
	defer eppSrv.Close()

	rdapSrv := rdap.NewServer(store, rdap.ServerConfig{})
	listen("RDAP", *rdapAddr, rdapSrv)
	defer rdapSrv.Close()

	whoisSrv := whois.NewServer(store)
	listen("WHOIS", *whoisAddr, whoisSrv)
	defer whoisSrv.Close()

	scopeSrv := dropscope.NewServer(store)
	if hub != nil {
		scopeSrv.AttachFeed(hub)
	}
	listen("pending-delete list", *scopeAddr, scopeSrv)
	defer scopeSrv.Close()

	oracle := safebrowsing.NewOracle()
	listen("oracle", *oracleAddr, oracle)
	defer oracle.Close()

	dnsSrv := dns.NewServer(store)
	listen("DNS (udp)", *dnsAddr, dnsSrv)
	defer dnsSrv.Close()

	zoneSrv := zonefile.NewServer(store)
	listen("zone files", *zoneAddr, zoneSrv)
	defer zoneSrv.Close()

	// status is the one status document: each component's own Metrics()
	// under its name, plus what no component reports of itself — the
	// store's counts, the WAL's error and the two lag distributions.
	// /debug/vars serves it as the dropserve var; shutdown logs it once.
	status := func() any {
		doc := map[string]any{
			"store": map[string]any{"shards": store.ShardCount(), "domains": store.Count(), "generation": store.Generation()},
			"epp":   eppSrv.Metrics(),
			"rdap":  rdapSrv.Metrics(),
			"whois": whoisSrv.Metrics(),
			"scope": scopeSrv.Metrics(),
		}
		if hub != nil {
			doc["feed"] = hub.Metrics()
			doc["feed_fanout_lag"] = lagOf(hub.FanoutLag())
		}
		if j := jnlVar.Load(); j != nil {
			doc["journal"] = j.Metrics()
			doc["wal_error"] = ""
			if err := j.Err(); err != nil {
				doc["wal_error"] = err.Error()
			}
		}
		if source != nil {
			doc["repl_source"] = source.Metrics()
		}
		if follower != nil {
			doc["repl_follower"] = follower.Metrics()
			doc["repl_lag"] = lagOf(follower.LagResult())
		}
		return doc
	}
	if *debugAddr != "" {
		expvar.Publish("dropserve", expvar.Func(status))
		debugSrv := serve.NewHTTP("debug", http.DefaultServeMux)
		listen("debug", *debugAddr, debugSrv)
		defer debugSrv.Close()
	}

	fmt.Printf("registry live: %d domains, %d accreditations (%d store shards)\n",
		store.Count(), len(dir.Registrars()), store.ShardCount())
	if zs := store.Zones(); len(zs) > 1 {
		for _, z := range zs {
			fmt.Printf("zone %-10s %-8s drop %02d:%02d, TLDs %v\n",
				z.Name, z.Policy, z.Drop.StartHour, z.Drop.StartMinute, z.TLDs)
		}
	}
	counts := store.StatusCounts()
	fmt.Printf("by status: active=%d autoRenew=%d redemption=%d pendingDelete=%d\n",
		counts[model.StatusActive], counts[model.StatusAutoRenew],
		counts[model.StatusRedemption], counts[model.StatusPendingDelete])
	fmt.Printf("EPP login example: registrar %d, token %q\n",
		dir.Accreditations(registrars.Svc1API)[0],
		dir.Credential(dir.Accreditations(registrars.Svc1API)[0]))

	// One event loop. Periodic snapshots bound the WAL replay a restart
	// pays; a replica has no writing journal until promotion installs one.
	// One lifecycle engine per hosted zone moves domains through expiration;
	// a replica's lifecycle is the primary's mutation stream — ticking
	// locally would fork history — so it ticks only once promoted.
	lcs := zoneLifecycles(store)
	snapTicker := time.NewTicker(*snapshotEvery)
	defer snapTicker.Stop()
	ticker := time.NewTicker(30 * time.Second)
	defer ticker.Stop()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGUSR1)
	for {
		select {
		case <-snapTicker.C:
			if jnl == nil {
				continue
			}
			// Async mode acknowledges mutations before they are durable, so a
			// poisoned WAL (disk full, IO error) is invisible to EPP clients;
			// surface it here instead of only at Close. The snapshot still
			// runs — it persists the current state directly, independent of
			// the log.
			if err := jnl.Err(); err != nil {
				log.Printf("journal: WAL failed, new mutations are NOT durable: %v", err)
			}
			if err := jnl.Snapshot(nil); err != nil {
				log.Printf("snapshot: %v", err)
			}
		case <-ticker.C:
			if isReplica && !promoted {
				continue
			}
			n := 0
			for _, lc := range lcs {
				n += lc.Tick(clock.Now())
			}
			if n > 0 {
				log.Printf("lifecycle: %d transitions", n)
			}
		case s := <-sig:
			if s == syscall.SIGUSR1 {
				// Promotion drill: finish applying the durable shipped log,
				// re-open the local directory as a writing journal, lift the
				// EPP read-only gate. The operator fences the old primary.
				if !isReplica || promoted {
					log.Printf("SIGUSR1: not an unpromoted replica; ignoring")
					continue
				}
				pj, err := follower.Promote(journal.Options{Dir: *dataDir, Mode: mode})
				if err != nil {
					log.Fatalf("promote: %v", err)
				}
				jnl = pj
				jnlVar.Store(pj)
				promoted = true
				// Zones that arrived through the stream need their own
				// lifecycle engines now that this process drives time.
				lcs = zoneLifecycles(store)
				eppSrv.SetReadOnly(false)
				log.Printf("promoted to primary at seq %d; EPP writes enabled", pj.LastSeq())
				continue
			}
			log.Printf("%v: shutting down", s)
			// Stop the only mutating surface first and drain its in-flight
			// sessions, then replication, then flush and close the journal so
			// every acknowledged mutation is on disk before the process exits.
			if err := eppSrv.Close(); err != nil {
				log.Printf("EPP: close: %v", err)
			}
			if source != nil {
				source.Close()
			}
			if follower != nil {
				if err := follower.Err(); err != nil {
					log.Printf("replication: terminal error: %v", err)
				}
				if !promoted {
					if err := follower.Close(); err != nil {
						log.Printf("replication: close: %v", err)
					}
				}
			}
			doc, _ := json.Marshal(status()) // maps, strings and finite numbers only: cannot fail
			log.Printf("status: %s", doc)
			if jnl != nil {
				// Surface a poisoned WAL explicitly before the close line: in
				// async mode this is the only place a quiet-exit run reports
				// that acknowledged mutations were never made durable.
				if err := jnl.Err(); err != nil {
					log.Printf("journal: WAL error, recent mutations may NOT be durable: %v", err)
				}
				m := jnl.Metrics()
				if err := jnl.Close(); err != nil {
					log.Printf("journal: close: %v", err)
				} else {
					log.Printf("journal: flushed and closed (%d bytes, %d fsyncs)", m.WALBytes, m.WALFsyncs)
				}
			}
			for _, s := range surfaces {
				if err := s.srv.ServeErr(); err != nil {
					log.Printf("%s: serve error: %v", s.name, err)
				}
			}
			return
		}
	}
}

// lag is the status document's summary of a latency distribution.
type lag struct {
	P50ms, P99ms, P999ms float64
	Samples              uint64
}

func lagOf(r loadgen.Result) lag {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return lag{P50ms: ms(r.P50()), P99ms: ms(r.P99()), P999ms: ms(r.P999()), Samples: r.Requests}
}

// surface is a listening server that can report a background serve failure:
// every one this process starts but DNS, which has no accept loop.
type surface struct {
	name string
	srv  interface{ ServeErr() error }
}

// surfaces is what listen started, for the shutdown report.
var surfaces []surface

func listen(name, addr string, srv interface {
	Listen(string) (net.Addr, error)
}) {
	got, err := srv.Listen(addr)
	if err != nil {
		log.Fatalf("%s: %v", name, err)
	}
	fmt.Printf("%-20s %s\n", name+":", got.String())
	if s, ok := srv.(interface{ ServeErr() error }); ok {
		surfaces = append(surfaces, surface{name, s})
	}
}

// zoneLifecycles builds one lifecycle engine per hosted zone: the default
// .com/.net one under the base parameters plus one per extra zone under its
// own, so federated domains transition on their zone's clocks.
func zoneLifecycles(store *registry.Store) []*registry.Lifecycle {
	lcs := []*registry.Lifecycle{registry.NewLifecycle(store, registry.DefaultLifecycleConfig())}
	for _, z := range store.ExtraZones() {
		lcs = append(lcs, registry.NewZoneLifecycle(store, z))
	}
	return lcs
}

// seedPopulation creates a mix of active, expiring and pending-delete
// domains so every protocol surface has something to serve, round-robining
// the names over tlds (no RNG draw per name — a single-TLD call consumes
// exactly the pre-federation stream).
func seedPopulation(store *registry.Store, dir *registrars.Directory, rng *rand.Rand, n int, now time.Time, tlds []model.TLD) {
	gen := names.NewGenerator(rng)
	sponsors := dir.Accreditations(registrars.SvcGoDaddy)
	sponsors = append(sponsors, dir.Accreditations(registrars.SvcOther)...)
	today := simtime.DayOf(now)
	for i := 0; i < n; i++ {
		g := gen.Next()
		name := g.Label + "." + string(tlds[i%len(tlds)])
		sponsor := sponsors[rng.Intn(len(sponsors))]
		switch i % 4 {
		case 0: // active
			created := now.AddDate(-1-rng.Intn(5), 0, -rng.Intn(300))
			store.SeedAt(name, sponsor, created, created, created.AddDate(1+rng.Intn(5), 0, 0), model.StatusActive, simtime.Day{})
		case 1: // recently expired (autoRenew)
			created := now.AddDate(-2, 0, -rng.Intn(30))
			expiry := now.AddDate(0, 0, -rng.Intn(20))
			store.SeedAt(name, sponsor, created, expiry, expiry.AddDate(1, 0, 0), model.StatusAutoRenew, simtime.Day{})
		case 2: // redemption
			created := now.AddDate(-3, 0, 0)
			updated := now.AddDate(0, 0, -rng.Intn(25))
			store.SeedAt(name, sponsor, created, updated, updated.AddDate(0, 0, -35), model.StatusRedemption, simtime.Day{})
		default: // pendingDelete within the published window
			created := now.AddDate(-2, 0, 0)
			updated := now.AddDate(0, 0, -33)
			store.SeedAt(name, sponsor, created, updated, updated.AddDate(0, 0, -35),
				model.StatusPendingDelete, today.AddDays(rng.Intn(dropscope.LookaheadDays)))
		}
	}
}
