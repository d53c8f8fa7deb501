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
	"slices"
	"sync/atomic"
	"syscall"
	"time"

	"dropzero/internal/dns"
	"dropzero/internal/dropscope"
	"dropzero/internal/epp"
	"dropzero/internal/feed"
	"dropzero/internal/gencache"
	"dropzero/internal/journal"
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
	extraZones, err := zone.ParseSpecs(*zoneSpecs)
	if err != nil {
		log.Fatal(err)
	}

	clock := simtime.RealClock{}
	rng := rand.New(rand.NewSource(*seed))
	dir := registrars.BuildDirectory(rng)
	store := registry.NewStoreWithShards(clock, *shards)

	// Durability and replication roles. A replica never opens the journal
	// for writing: its data directory belongs to the follower's shipped log
	// (byte-identical to the primary's segments), recovered locally on start
	// and promotable to a writing journal on SIGUSR1. A primary recovers the
	// directory, attaches the journal, and optionally streams it.
	// jnlVar tracks the live writing journal across promotion for the
	// snapshotter and the debug vars.
	var (
		jnl       *journal.Journal
		recovered journal.Recovery
		jnlVar    atomic.Pointer[journal.Journal]
		follower  *repl.Follower
		source    *repl.Source
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
	} else if *dataDir != "" && mode != journal.ModeOff {
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

	// Event feed: the hub consumes the store's mutation stream through a
	// journal tap and maintains pre-rendered delta segments for the
	// pending-delete list's /deltas and /events endpoints. Primary only — a
	// replica's mutations arrive through the shipped log, which bypasses the
	// journal hook. The baseline is primed from the recovered state; the
	// seeding below streams through the tap like any other mutation.
	var hub *feed.Hub
	if !isReplica {
		hub = feed.NewHub(feed.Options{RingBytes: *feedRing, QueueLen: *feedQueue})
		defer hub.Close()
		hub.PrimeFromStore(store)
		if jnl != nil {
			store.SetJournal(feed.Tap{Inner: jnl, Hub: hub})
		} else {
			store.SetJournal(hub)
		}
	}

	// Only a primary originates mutations; a replica's registrars,
	// population and zones arrive through the replication stream.
	if !isReplica {
		for _, r := range dir.Registrars() {
			store.AddRegistrar(r)
		}
		// Extra zones install before any of their domains can exist. A
		// recovered directory has already replayed their MutAddZone records
		// into the store; re-adding would clash, so recovered zones are
		// verified against the flag instead.
		for _, z := range extraZones {
			if have, ok := store.ZoneByName(z.Name); ok {
				if !slices.Equal(have.TLDs, z.TLDs) || have.Policy != z.Policy {
					log.Fatalf("recovered zone %q (%v %s) disagrees with the configured one (%v %s)",
						z.Name, have.TLDs, have.Policy, z.TLDs, z.Policy)
				}
				continue
			}
			if err := store.AddZone(z); err != nil {
				log.Fatalf("zone %s: %v", z.Name, err)
			}
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
	}
	if hub != nil {
		hub.SetZones(store.Zones())
	}

	// Replication source: after seeding (bulk history ships via snapshot +
	// segment reuse, not per-record acks), before EPP opens. With
	// -sync-followers the store's journal is swapped for the chained
	// journal+quorum waiter, so an EPP ack means "fsynced here AND applied
	// and fsynced on N followers" — the zero-acked-loss failover contract.
	if *replListen != "" {
		source = repl.NewSource(jnl, repl.SourceConfig{SyncFollowers: *syncFollowers, Logf: log.Printf})
		listen("replication", *replListen, source)
		defer source.Close()
		if *syncFollowers > 0 {
			store.SetJournal(feed.Tap{Inner: &repl.SyncJournal{J: jnl, S: source}, Hub: hub})
			fmt.Printf("semi-sync: EPP acks wait for %d follower acknowledgement(s)\n", *syncFollowers)
		}
	}

	var poll *epp.PollQueue
	if !isReplica {
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

	if *debugAddr != "" {
		publishDebugVars(store, eppSrv, rdapSrv, whoisSrv, scopeSrv, hub, &jnlVar)
		publishReplVars(source, follower)
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

	// Background snapshotter: periodic consistent full-store snapshots bound
	// the WAL replay a restart pays, without ever stopping the world. It
	// reads the journal through jnlVar so a replica — which starts with no
	// writing journal — begins snapshotting the moment promotion installs
	// one.
	snapStop := make(chan struct{})
	snapDone := make(chan struct{})
	if jnl != nil || isReplica {
		go func() {
			defer close(snapDone)
			t := time.NewTicker(*snapshotEvery)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					j := jnlVar.Load()
					if j == nil {
						continue // replica: the shipped log is the history
					}
					// Async mode acknowledges mutations before they are
					// durable, so a poisoned WAL (disk full, IO error) is
					// invisible to EPP clients; surface it here instead of
					// only at Close. The snapshot still runs — it persists
					// the current state directly, independent of the log.
					if err := j.Err(); err != nil {
						log.Printf("journal: WAL failed, new mutations are NOT durable: %v", err)
					}
					if err := j.Snapshot(nil); err != nil {
						log.Printf("snapshot: %v", err)
					}
				case <-snapStop:
					return
				}
			}
		}()
	} else {
		close(snapDone)
	}

	// Keep the lifecycle engines ticking so seeded domains progress through
	// expiration while the server runs — one engine per hosted zone, each
	// under its own lifecycle parameters. A replica's lifecycle is driven by
	// the primary's mutation stream — ticking locally would fork history —
	// so the ticker is a no-op until promotion.
	lcs := zoneLifecycles(store)
	ticker := time.NewTicker(30 * time.Second)
	defer ticker.Stop()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGUSR1)
	for {
		select {
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
			// sessions, then flush and close the journal so every
			// acknowledged mutation is on disk before the process exits.
			if err := eppSrv.Close(); err != nil {
				log.Printf("EPP: close: %v", err)
			}
			em := eppSrv.Metrics()
			log.Printf("EPP: %d connections, commands %v, result codes %v",
				em.Conns, em.Commands, em.Codes)
			close(snapStop)
			<-snapDone
			// Replication state in the shutdown summary: role, position,
			// peak lag — the numbers a post-mortem of a Drop window wants.
			if source != nil {
				sm := source.Metrics()
				log.Printf("replication: role=primary followers=%d min_acked_seq=%d shipped=%d records (%d bytes) snapshots_sent=%d connects=%d",
					sm.Followers, sm.MinAckedSeq, sm.ShippedRecords, sm.ShippedBytes, sm.SnapshotsSent, sm.Connects)
				source.Close()
			}
			if follower != nil {
				role := "replica"
				if promoted {
					role = "promoted-primary"
				}
				fm := follower.Metrics()
				log.Printf("replication: role=%s applied_seq=%d primary_seq=%d peak_lag=%d records / %v reconnects=%d snapshots=%d",
					role, fm.AppliedSeq, fm.PrimarySeq, fm.PeakSeqLag, fm.PeakTimeLag, fm.Reconnects, fm.Snapshots)
				if err := follower.Err(); err != nil {
					log.Printf("replication: terminal error: %v", err)
				}
				if !promoted {
					if err := follower.Close(); err != nil {
						log.Printf("replication: close: %v", err)
					}
				}
			}
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
			logSurface("RDAP", rdapSrv.Metrics().Requests, rdapSrv.Metrics().Cache)
			logSurface("WHOIS", whoisSrv.Metrics().Requests, whoisSrv.Metrics().Cache)
			sm := scopeSrv.Metrics()
			logSurface("pending-delete list", sm.Requests, sm.Cache)
			if sm.WriteErrors > 0 {
				log.Printf("pending-delete list: %d failed body writes", sm.WriteErrors)
			}
			if hub != nil {
				fm := hub.Metrics()
				lag := hub.FanoutLag()
				log.Printf("feed: %d records in %d batches (%d ops), %d subscribers served, slow_drops=%d resumes=%d resets=%d, fan-out lag p50=%v p99=%v",
					fm.Records, fm.Batches, fm.Ops, fm.SubscribersTotal,
					fm.SlowDrops, fm.Resumes, fm.Resets, lag.P50(), lag.P99())
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

// publishDebugVars exposes the registry and per-surface serving counters
// under a single expvar map, so `curl /debug/vars` shows shard count, live
// domain population, request totals and cache hit ratios alongside the
// standard memstats — handy when reading a pprof contention profile.
func publishDebugVars(store *registry.Store, eppSrv *epp.Server, rdapSrv *rdap.Server, whoisSrv *whois.Server, scopeSrv *dropscope.Server, hub *feed.Hub, jnlVar *atomic.Pointer[journal.Journal]) {
	surface := func(requests uint64, cache gencache.Counters) map[string]any {
		return map[string]any{
			"requests":    requests,
			"cache_hits":  cache.Hits,
			"cache_miss":  cache.Misses,
			"cache_ratio": cache.HitRatio(),
		}
	}
	expvar.Publish("dropserve", expvar.Func(func() any {
		rm, wm, sm := rdapSrv.Metrics(), whoisSrv.Metrics(), scopeSrv.Metrics()
		em := eppSrv.Metrics()
		vars := map[string]any{
			"store": map[string]any{
				"shards":     store.ShardCount(),
				"domains":    store.Count(),
				"generation": store.Generation(),
			},
			// Per-command and per-result-code counters from the EPP hot
			// path; during a Drop, watch create vs code 2302 (lost races)
			// and 2502 (rate-limit pushback) climb here.
			"epp": map[string]any{
				"connections": em.Conns,
				"commands":    em.Commands,
				"codes":       em.Codes,
			},
			"rdap":  surface(rm.Requests, rm.Cache),
			"whois": surface(wm.Requests, wm.Cache),
			"scope": surface(sm.Requests, sm.Cache),
		}
		if hub != nil {
			fm := hub.Metrics()
			lag := hub.FanoutLag()
			vars["feed"] = map[string]any{
				"cursor":            fm.Cursor,
				"records":           fm.Records,
				"batches":           fm.Batches,
				"ops":               fm.Ops,
				"subscribers":       fm.Subscribers,
				"subscribers_total": fm.SubscribersTotal,
				"slow_drops":        fm.SlowDrops,
				"resumes":           fm.Resumes,
				"resets":            fm.Resets,
				"delta_requests":    fm.DeltaRequests,
				"full_requests":     fm.FullRequests,
				"event_requests":    fm.EventRequests,
				"ring_segments":     fm.RingSegments,
				"ring_bytes":        fm.RingBytes,
				"pending":           fm.Pending,
				"cache_hits":        fm.Cache.Hits,
				"cache_miss":        fm.Cache.Misses,
				// Live fan-out lag: mutation append instant to subscriber
				// receipt, the number a drop-catcher's dashboard watches.
				"fanout_lag_p50_ms":  float64(lag.P50()) / float64(time.Millisecond),
				"fanout_lag_p99_ms":  float64(lag.P99()) / float64(time.Millisecond),
				"fanout_lag_p999_ms": float64(lag.P999()) / float64(time.Millisecond),
				"fanout_deliveries":  lag.Requests,
			}
		}
		if jnl := jnlVar.Load(); jnl != nil {
			jm := jnl.Metrics()
			walErr := ""
			if err := jnl.Err(); err != nil {
				walErr = err.Error()
			}
			vars["journal"] = map[string]any{
				"wal_bytes":                 jm.WALBytes,
				"wal_fsyncs":                jm.WALFsyncs,
				"wal_error":                 walErr,
				"snapshot_age_seconds":      jm.SnapshotAgeSeconds,
				"recovery_replayed_records": jm.RecoveryReplayedRecords,
				"recovery_seconds":          jm.RecoverySeconds,
				"recovery_replay_rps":       jm.RecoveryReplayRPS,
			}
		}
		return vars
	}))
}

// publishReplVars exposes replication counters as repl_source / repl_follower
// expvars, whichever matches this process's role. The follower map carries
// the lag gauges a dashboard polls during a Drop: how far behind the replica
// is in records and in time, plus the worst it has been.
func publishReplVars(source *repl.Source, follower *repl.Follower) {
	if source != nil {
		expvar.Publish("repl_source", expvar.Func(func() any {
			m := source.Metrics()
			return map[string]any{
				"followers":       m.Followers,
				"min_acked_seq":   m.MinAckedSeq,
				"shipped_records": m.ShippedRecords,
				"shipped_bytes":   m.ShippedBytes,
				"snapshots_sent":  m.SnapshotsSent,
				"connects":        m.Connects,
			}
		}))
	}
	if follower != nil {
		expvar.Publish("repl_follower", expvar.Func(func() any {
			m := follower.Metrics()
			lag := follower.LagResult()
			return map[string]any{
				"applied_seq":      m.AppliedSeq,
				"primary_seq":      m.PrimarySeq,
				"seq_lag":          m.SeqLag,
				"peak_seq_lag":     m.PeakSeqLag,
				"peak_time_lag_ms": float64(m.PeakTimeLag) / float64(time.Millisecond),
				"time_lag_p50_ms":  float64(lag.P50()) / float64(time.Millisecond),
				"time_lag_p99_ms":  float64(lag.P99()) / float64(time.Millisecond),
				"records":          m.Records,
				"batches":          m.Batches,
				"snapshots":        m.Snapshots,
				"reconnects":       m.Reconnects,
				"log_bytes":        m.LogBytes,
			}
		}))
	}
}

// logSurface prints one surface's request count and cache effectiveness.
func logSurface(name string, requests uint64, cache gencache.Counters) {
	log.Printf("%s: %d requests, cache %d/%d hits (%.1f%% hit ratio)",
		name, requests, cache.Hits, cache.Hits+cache.Misses, 100*cache.HitRatio())
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
