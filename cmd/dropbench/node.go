package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

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
	"dropzero/internal/simtime"
	"dropzero/internal/whois"
)

// nodeConfig sizes one full node. Every server option not named here stays
// at the program's default.
type nodeConfig struct {
	seed       int64
	population int // seeded domains, contested ones included
	contested  int // pendingDelete names due today: the Drop's queue
	sessions   int // logged-in EPP sessions, one accreditation each
	rec        *recorder
}

// session is one logged-in EPP connection.
type session struct {
	cli    *epp.Client
	accred int
}

// node is the whole ecosystem wired the way cmd/dropserve wires a primary
// with -durability sync -listen-replication -sync-followers 1, plus the one
// in-process follower that flag waits for.
type node struct {
	tmp   string
	clock simtime.RealClock
	dir   *registrars.Directory
	store *registry.Store
	jnl   *journal.Journal
	hub   *feed.Hub

	source   *repl.Source
	follower *repl.Follower
	fstore   *registry.Store

	eppSrv   *epp.Server
	rdapSrv  *rdap.Server
	whoisSrv *whois.Server
	scopeSrv *dropscope.Server

	rdapURL, scopeURL, whoisAddr string

	sessions []session
	subs     []*sseSubscriber
	httpc    *http.Client // keep-alive client for the read surfaces

	names     []string // population, seeding order; owned and contested are subsets
	owned     []string // active names sponsored by sessions[0]'s accreditation
	contested []string

	bytesPerDomain float64
}

// ownedEvery makes every n-th seeded name an active registration sponsored
// by the first session's accreditation, so that session can update them.
const ownedEvery = 50

// bootNode seeds the population with the journal detached and snapshots it,
// so set-up costs seconds instead of one fsync per seeded domain; history
// reaches the follower as that snapshot, exactly as a fresh replica of a
// running primary would receive it.
func bootNode(cfg nodeConfig) (_ *node, err error) {
	n := &node{}
	defer func() {
		if err != nil {
			n.close()
		}
	}()
	if n.tmp, err = os.MkdirTemp("", "dropbench-node-"); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	n.dir = registrars.BuildDirectory(rng)
	n.store = registry.NewStoreWithShards(n.clock, 0)
	n.jnl, _, err = journal.Open(n.store, journal.Options{Dir: filepath.Join(n.tmp, "primary"), Mode: journal.ModeSync})
	if err != nil {
		return nil, err
	}
	for _, r := range n.dir.Registrars() {
		n.store.AddRegistrar(r)
	}
	catchers := n.dir.Accreditations(registrars.SvcDropCatch)
	if len(catchers) < cfg.sessions {
		return nil, fmt.Errorf("directory has %d drop-catch accreditations, need %d", len(catchers), cfg.sessions)
	}

	heapBefore := liveHeap()
	if err := n.seed(rng, cfg, catchers[0]); err != nil {
		return nil, err
	}
	n.bytesPerDomain = ratio(float64(liveHeap())-float64(heapBefore), float64(cfg.population))
	if err := n.jnl.Snapshot(nil); err != nil {
		return nil, err
	}

	n.hub = feed.NewHub(feed.Options{})
	n.hub.PrimeFromStore(n.store)
	n.hub.SetZones(n.store.Zones())

	n.source = repl.NewSource(n.jnl, repl.SourceConfig{SyncFollowers: 1})
	replAddr, err := n.source.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n.fstore = registry.NewStoreWithShards(n.clock, 0)
	n.follower, err = repl.NewFollower(n.fstore, repl.FollowerConfig{
		Dir: filepath.Join(n.tmp, "follower"), Addr: replAddr.String(),
	})
	if err != nil {
		return nil, err
	}
	n.follower.Start()
	err = waitFor(30*time.Second, "follower bootstrap", func() bool {
		return n.follower.Metrics().Snapshots > 0 && n.follower.AppliedSeq() == n.jnl.LastSeq()
	})
	if err != nil {
		return nil, errors.Join(err, n.follower.Err())
	}

	if cfg.rec != nil {
		n.store.SetJournal(tracedTap{
			inner: &tracedJournal{j: n.jnl, s: n.source, rec: cfg.rec},
			hub:   n.hub, rec: cfg.rec,
		})
	} else {
		n.store.SetJournal(feed.Tap{Inner: &repl.SyncJournal{J: n.jnl, S: n.source}, Hub: n.hub})
	}

	poll := epp.NewPollQueue(n.clock, 0)
	n.store.SetObserver(poll)
	// The limiter stays in the create path but admits everything: any 2502
	// in a run is a failure, not a policy outcome.
	n.eppSrv = epp.NewServer(n.store, n.clock, epp.ServerConfig{
		Credentials: n.dir.Credentials(),
		CreateBurst: 1e9,
		CreateRate:  1e9,
		Poll:        poll,
	})
	eppAddr, err := n.eppSrv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n.rdapSrv = rdap.NewServer(n.store, rdap.ServerConfig{})
	rdapAddr, err := n.rdapSrv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n.whoisSrv = whois.NewServer(n.store)
	whoisAddr, err := n.whoisSrv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n.scopeSrv = dropscope.NewServer(n.store)
	n.scopeSrv.AttachFeed(n.hub)
	scopeAddr, err := n.scopeSrv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n.rdapURL = "http://" + rdapAddr.String()
	n.scopeURL = "http://" + scopeAddr.String()
	n.whoisAddr = whoisAddr.String()
	n.httpc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}

	for _, accred := range catchers[:cfg.sessions] {
		cli, err := epp.Dial(eppAddr.String())
		if err != nil {
			return nil, err
		}
		n.sessions = append(n.sessions, session{cli: cli, accred: accred})
		if err := cli.Login(accred, n.dir.Credential(accred)); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// seed fills the store from rng: contested names pendingDelete due today,
// every ownedEvery-th name active under owner, the rest spread over the
// lifecycle states with a twentieth inside the published five-day window.
func (n *node) seed(rng *rand.Rand, cfg nodeConfig, owner int) error {
	gen := names.NewGenerator(rng)
	sponsors := append(n.dir.Accreditations(registrars.SvcGoDaddy), n.dir.Accreditations(registrars.SvcOther)...)
	now := n.clock.Now()
	today := simtime.DayOf(now)
	n.names = make([]string, 0, cfg.population)
	for i := 0; i < cfg.population; i++ {
		// The index suffix keeps generated labels unique.
		name := gen.Next().Label + strconv.Itoa(i) + ".com"
		sponsor := sponsors[rng.Intn(len(sponsors))]
		var err error
		switch {
		case i < cfg.contested:
			// Distinct last-updated instants fix the deletion order.
			updated := today.AddDays(-35).At(6, 0, 0).Add(time.Duration(i) * time.Second)
			_, err = n.store.SeedAt(name, sponsor, updated.AddDate(-2, 0, 0), updated,
				updated.AddDate(0, 0, -30), model.StatusPendingDelete, today)
			n.contested = append(n.contested, name)
		case i%ownedEvery == 0:
			created := now.AddDate(-1, 0, -rng.Intn(300))
			_, err = n.store.SeedAt(name, owner, created, created, created.AddDate(3, 0, 0), model.StatusActive, simtime.Day{})
			n.owned = append(n.owned, name)
		case i%20 < 14:
			created := now.AddDate(-1-rng.Intn(5), 0, -rng.Intn(300))
			_, err = n.store.SeedAt(name, sponsor, created, created, created.AddDate(1+rng.Intn(5), 0, 0), model.StatusActive, simtime.Day{})
		case i%20 < 17:
			created := now.AddDate(-2, 0, -rng.Intn(30))
			expiry := now.AddDate(0, 0, -rng.Intn(20))
			_, err = n.store.SeedAt(name, sponsor, created, expiry, expiry.AddDate(1, 0, 0), model.StatusAutoRenew, simtime.Day{})
		case i%20 < 19:
			created := now.AddDate(-3, 0, 0)
			updated := now.AddDate(0, 0, -rng.Intn(25))
			_, err = n.store.SeedAt(name, sponsor, created, updated, updated.AddDate(0, 0, -35), model.StatusRedemption, simtime.Day{})
		default:
			created := now.AddDate(-2, 0, 0)
			updated := now.AddDate(0, 0, -33)
			_, err = n.store.SeedAt(name, sponsor, created, updated, updated.AddDate(0, 0, -35),
				model.StatusPendingDelete, today.AddDays(1+rng.Intn(dropscope.LookaheadDays-1)))
		}
		if err != nil {
			return fmt.Errorf("seed %s: %w", name, err)
		}
		n.names = append(n.names, name)
	}
	return nil
}

// subscribe opens one passive /events receiver; onOp runs on its reader
// goroutine. close ends it.
func (n *node) subscribe(onOp func(op feed.Op, at time.Time)) error {
	s, err := subscribeSSE(context.Background(), n.httpc, n.scopeURL, onOp)
	if err != nil {
		return err
	}
	n.subs = append(n.subs, s)
	return nil
}

// close tears the node down in a fixed order — the mutating surface first,
// then the subscribers, the read surfaces and the feed, the replication
// source, the follower, and the journal last — and removes its temp dir. It
// is safe on a partly booted node.
func (n *node) close() error {
	var errs []error
	for _, s := range n.sessions {
		s.cli.Close()
	}
	if n.eppSrv != nil {
		errs = append(errs, n.eppSrv.Close())
	}
	for _, s := range n.subs {
		s.close()
	}
	if n.httpc != nil {
		n.httpc.CloseIdleConnections()
	}
	if n.scopeSrv != nil {
		errs = append(errs, n.scopeSrv.Close())
	}
	if n.rdapSrv != nil {
		errs = append(errs, n.rdapSrv.Close())
	}
	if n.whoisSrv != nil {
		errs = append(errs, n.whoisSrv.Close())
	}
	if n.hub != nil {
		n.hub.Close()
	}
	if n.source != nil {
		errs = append(errs, n.source.Close())
	}
	if n.follower != nil {
		errs = append(errs, n.follower.Close())
	}
	if n.jnl != nil {
		n.store.SetJournal(nil)
		errs = append(errs, n.jnl.Close())
	}
	if n.tmp != "" {
		errs = append(errs, os.RemoveAll(n.tmp))
	}
	return errors.Join(errs...)
}

// counters is a reading of every layer's public Metrics(); the delta of two
// readings across the measured phase gives the counter metrics.
type counters struct {
	epp      epp.Metrics
	journal  journal.Metrics
	seq      uint64
	source   repl.SourceMetrics
	follower repl.FollowerMetrics
	feed     feed.Metrics
	rdap     rdap.Metrics
	whois    whois.Metrics
	scope    dropscope.Metrics
}

func (n *node) counters() counters {
	return counters{
		epp:      n.eppSrv.Metrics(),
		journal:  n.jnl.Metrics(),
		seq:      n.jnl.LastSeq(),
		source:   n.source.Metrics(),
		follower: n.follower.Metrics(),
		feed:     n.hub.Metrics(),
		rdap:     n.rdapSrv.Metrics(),
		whois:    n.whoisSrv.Metrics(),
		scope:    n.scopeSrv.Metrics(),
	}
}

// setCounterMetrics reports the counter deltas of the measured phase and the
// lag distributions the layers keep themselves.
func (n *node) setCounterMetrics(r *result, a, b counters) {
	creates := float64(b.epp.Commands[epp.CmdCreate] - a.epp.Commands[epp.CmdCreate])
	code := func(c int) float64 { return float64(b.epp.Codes[c] - a.epp.Codes[c]) }
	r.set("epp.code_1000", code(epp.CodeOK))
	r.set("epp.code_2302", code(epp.CodeObjectExists))
	r.set("epp.code_2502", code(epp.CodeRateLimited))
	r.set("epp.win_ratio", ratio(code(epp.CodeOK), creates))

	commits := float64(b.seq - a.seq)
	r.set("journal.commits", commits)
	r.set("journal.fsyncs_per_commit", ratio(float64(b.journal.WALFsyncs-a.journal.WALFsyncs), commits))
	r.set("journal.wal_bytes_per_commit", ratio(float64(b.journal.WALBytes-a.journal.WALBytes), commits))

	shipped := float64(b.source.ShippedRecords - a.source.ShippedRecords)
	r.set("repl.shipped_bytes_per_record", ratio(float64(b.source.ShippedBytes-a.source.ShippedBytes), shipped))
	r.set("repl.records_per_batch", ratio(float64(b.follower.Records-a.follower.Records), float64(b.follower.Batches-a.follower.Batches)))
	r.set("repl.peak_seq_lag", float64(b.follower.PeakSeqLag))
	r.set("repl.reconnects", float64(b.follower.Reconnects-a.follower.Reconnects))
	lag := n.follower.LagResult()
	r.set("repl.lag_p50_us", us(lag.P50()))
	r.set("repl.lag_p95_us", us(lag.P95()))

	records := float64(b.feed.Records - a.feed.Records)
	r.set("feed.records_per_batch", ratio(records, float64(b.feed.Batches-a.feed.Batches)))
	r.set("feed.ops_per_record", ratio(float64(b.feed.Ops-a.feed.Ops), records))
	r.set("feed.slow_drops", float64(b.feed.SlowDrops-a.feed.SlowDrops))
	r.set("feed.resets", float64(b.feed.Resets-a.feed.Resets))
	fan := n.hub.FanoutLag()
	r.set("feed.fanout_lag_p50_us", us(fan.P50()))
	r.set("feed.fanout_lag_p95_us", us(fan.P95()))

	r.set("rdap.requests", float64(b.rdap.Requests-a.rdap.Requests))
	r.set("rdap.hit_ratio", hitRatio(a.rdap.Cache, b.rdap.Cache))
	r.set("whois.requests", float64(b.whois.Requests-a.whois.Requests))
	r.set("whois.hit_ratio", hitRatio(a.whois.Cache, b.whois.Cache))
	r.set("dropscope.requests", float64(b.scope.Requests-a.scope.Requests))
	r.set("dropscope.hit_ratio", hitRatio(a.scope.Cache, b.scope.Cache))
	r.set("registry.bytes_per_domain", n.bytesPerDomain)

	r.infof("counters: %.0f creates, %.0f commits, %.0f fsyncs, %.0f records shipped, %.0f feed records; requests rdap=%.0f whois=%.0f dropscope=%.0f deltas=%d",
		creates, commits, float64(b.journal.WALFsyncs-a.journal.WALFsyncs), shipped, records,
		float64(b.rdap.Requests-a.rdap.Requests), float64(b.whois.Requests-a.whois.Requests),
		float64(b.scope.Requests-a.scope.Requests), b.feed.DeltaRequests-a.feed.DeltaRequests)
}

// hitRatio is the cache hit ratio between two counter readings.
func hitRatio(a, b gencache.Counters) float64 {
	return gencache.Counters{Hits: b.Hits - a.Hits, Misses: b.Misses - a.Misses}.HitRatio()
}

// setTracedJournalMetrics reports the in-situ spans of the tracing
// decorators; an untraced run has none.
func setTracedJournalMetrics(r *result, rec *recorder) {
	if rec == nil {
		return
	}
	r.set("journal.append_ns", float64(percentile(rec.durations("journal.append"), 50)))
	fsync := rec.durations("journal.fsync_wait")
	r.set("journal.fsync_wait_p50_us", us(percentile(fsync, 50)))
	r.set("journal.fsync_wait_p95_us", us(percentile(fsync, 95)))
	quorum := rec.durations("repl.quorum_wait")
	r.set("repl.quorum_wait_p50_us", us(percentile(quorum, 50)))
	r.set("repl.quorum_wait_p95_us", us(percentile(quorum, 95)))
	r.set("feed.append_ns", float64(percentile(rec.durations("feed.append"), 50)))
}

// liveHeap is HeapAlloc after a collection: what the process actually holds.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// waitFor polls cond until it holds or the timeout passes.
func waitFor(timeout time.Duration, what string, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out after %v waiting for %s", timeout, what)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}
