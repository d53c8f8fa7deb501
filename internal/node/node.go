// Package node is one registry process: the store, its durability and
// replication role, the commit stack every mutation passes, the serving
// surfaces, promotion and teardown. dropserve, droprepl and dropstorm reach
// nothing underneath it.
//
// A primary boots in a fixed order: the store; the journal and its
// recovery; the zones and the caller's Boot, on the bare journal; then
// attach — a feed hub primed from the booted store and mounted on
// dropscope, the commit stack (WAL → follower quorum under semi-sync →
// feed.Tap) and the EPP poll observer. A replica runs a follower instead and
// serves read-only until Promote, which runs the same attach.
package node

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"dropzero/internal/dropscope"
	"dropzero/internal/epp"
	"dropzero/internal/feed"
	"dropzero/internal/journal"
	"dropzero/internal/loadgen"
	"dropzero/internal/model"
	"dropzero/internal/rdap"
	"dropzero/internal/registry"
	"dropzero/internal/repl"
	"dropzero/internal/safebrowsing"
	"dropzero/internal/serve"
	"dropzero/internal/simtime"
	"dropzero/internal/whois"
	"dropzero/internal/zone"
	"dropzero/internal/zonefile"
)

// Config describes one node. A surface whose address is empty is not
// served; Debug serves http.DefaultServeMux (pprof, expvar).
type Config struct {
	EPP, RDAP, WHOIS, Scope, Oracle, ZoneFile, Debug string
	// Replication streams snapshot + WAL to followers; ReplicateFrom makes
	// the node a read replica of the primary at that address.
	Replication, ReplicateFrom string
	// DataDir holds the WAL and snapshots (a replica's shipped log); empty,
	// or Mode off, runs memory only.
	DataDir string
	Mode    journal.Mode
	Clock   simtime.Clock
	Shards  int
	// SyncFollowers > 0: a commit also waits for that many follower acks.
	SyncFollowers           int
	Credentials             map[int]string
	CreateBurst, CreateRate float64
	// Zones are extra zones as zone.ParseSpecs specs, installed (or checked
	// against the recovered ones) before Boot; Registrars are added then too.
	Zones      string
	Registrars []model.Registrar
	// Boot builds a primary's state on the bare journal (nil when memory
	// only): journaled, unseen by the feed and the follower quorum. A
	// replica's state arrives through the stream: Boot and Registrars do not
	// run there, and Zones is refused.
	Boot func(s *registry.Store, j *journal.Journal, rec journal.Recovery) error
	Logf func(format string, args ...any) // nil discards
}

// check enforces the role rules, naming the dropserve flags they are about.
// Semi-sync promises that no acked create is lost: without followers, or
// under async durability, it would be accepted and do nothing.
func (c *Config) check() error {
	replica := c.ReplicateFrom != ""
	switch {
	case replica && (c.DataDir == "" || c.Mode == journal.ModeOff):
		return errors.New("-replicate-from requires -datadir and -durability async or sync: the shipped log lives there, and promotion re-opens it as a writing journal")
	case replica && c.Replication != "":
		return errors.New("-listen-replication and -replicate-from are mutually exclusive")
	case replica && c.Zones != "":
		return errors.New("-zones is a primary-only flag: a replica learns its zones from the replication stream")
	case c.SyncFollowers > 0 && c.Replication == "":
		return errors.New("-sync-followers requires -listen-replication (the followers it waits for connect there)")
	case c.SyncFollowers > 0 && c.Mode != journal.ModeSync:
		return errors.New("-sync-followers requires -durability sync: an async journal acks before anything is durable, so no follower would be waited for")
	case c.Replication != "" && (c.DataDir == "" || c.Mode == journal.ModeOff):
		return errors.New("-listen-replication requires a journal (-datadir plus -durability async or sync)")
	}
	return nil
}

// Node is a started registry process.
type Node struct {
	Store     *registry.Store
	EPP       *epp.Server
	Follower  *repl.Follower // a replica's; nil on a primary
	Listeners []Listener     // the bound surfaces, in start order

	cfg    Config
	poll   *epp.PollQueue
	rdap   *rdap.Server
	whois  *whois.Server
	scope  *dropscope.Server
	source *repl.Source
	closed atomic.Bool

	// Promote sets these under a concurrent Status.
	jnl atomic.Pointer[journal.Journal]
	hub atomic.Pointer[feed.Hub]
}

// Listener is one surface Start bound.
type Listener struct {
	Name, Addr string
	srv        server
}

type server interface {
	Listen(addr string) (net.Addr, error)
	Close() error
}

// Start boots a node and binds its surfaces; on error it closes what it
// started.
func Start(cfg Config) (_ *Node, err error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	s := registry.NewStoreWithShards(cfg.Clock, cfg.Shards)
	n := &Node{Store: s, cfg: cfg, poll: epp.NewPollQueue(cfg.Clock, 0),
		rdap: rdap.NewServer(s, rdap.ServerConfig{}), whois: whois.NewServer(s), scope: dropscope.NewServer(s)}
	// Until Promote sets the observer, a replica's poll queue stays empty.
	n.EPP = epp.NewServer(s, cfg.Clock, epp.ServerConfig{Credentials: cfg.Credentials,
		CreateBurst: cfg.CreateBurst, CreateRate: cfg.CreateRate, Logf: cfg.Logf, Poll: n.poll, ReadOnly: cfg.ReplicateFrom != ""})
	defer func() {
		if err != nil {
			n.Close()
		}
	}()
	if cfg.ReplicateFrom != "" {
		if n.Follower, err = repl.NewFollower(s, repl.FollowerConfig{Dir: cfg.DataDir, Addr: cfg.ReplicateFrom, Logf: cfg.Logf}); err != nil {
			return nil, fmt.Errorf("replication: %w", err)
		}
		n.Follower.Start()
	} else if err := n.boot(); err != nil {
		return nil, err
	}
	for _, l := range []Listener{
		{"replication", cfg.Replication, n.source},
		{"EPP", cfg.EPP, n.EPP},
		{"RDAP", cfg.RDAP, n.rdap},
		{"WHOIS", cfg.WHOIS, n.whois},
		{"pending-delete list", cfg.Scope, n.scope},
		{"oracle", cfg.Oracle, safebrowsing.NewOracle()},
		{"zone files", cfg.ZoneFile, zonefile.NewServer(n.Store)},
		{"debug", cfg.Debug, serve.NewHTTP("debug", http.DefaultServeMux)},
	} {
		if err := n.listen(l.Name, l.Addr, l.srv); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// boot brings a primary up to attach. The replication source is made after
// Boot: bulk boot history ships as snapshot and segments, not as
// per-record acks.
func (n *Node) boot() error {
	zones, err := zone.ParseSpecs(n.cfg.Zones)
	if err != nil {
		return err
	}
	var j *journal.Journal
	var rec journal.Recovery
	if n.cfg.DataDir != "" && n.cfg.Mode != journal.ModeOff {
		if j, rec, err = journal.Open(n.Store, journal.Options{Dir: n.cfg.DataDir, Mode: n.cfg.Mode}); err != nil {
			return err
		}
		n.jnl.Store(j)
		n.Store.SetJournal(j)
	}
	if err := n.Store.InstallZones(zones); err != nil {
		return err
	}
	for _, r := range n.cfg.Registrars {
		n.Store.AddRegistrar(r)
	}
	if n.cfg.Boot != nil {
		if err := n.cfg.Boot(n.Store, j, rec); err != nil {
			return err
		}
	}
	if n.cfg.Replication != "" {
		n.source = repl.NewSource(j, repl.SourceConfig{SyncFollowers: n.cfg.SyncFollowers, Logf: n.cfg.Logf})
	}
	n.attach(j)
	return nil
}

// attach makes the node a writing primary over j (nil: memory only). The
// store takes no writes meanwhile, so the hub's cursor 0 is the store's
// state.
func (n *Node) attach(j *journal.Journal) {
	hub := feed.NewHub(feed.Options{})
	hub.PrimeFromStore(n.Store)
	hub.SetZones(n.Store.Zones())
	n.scope.AttachFeed(hub)
	// The commit stack, in the order a mutation passes it: the WAL; under
	// semi-sync the follower quorum, so an ack means "fsynced here AND
	// applied and fsynced on N followers"; then the feed. Without a WAL inner
	// stays a nil interface, which feed.Tap skips.
	var inner registry.Journal
	if j != nil {
		inner = j
	}
	if n.cfg.SyncFollowers > 0 {
		inner = &repl.SyncJournal{J: j, S: n.source}
	}
	n.Store.SetJournal(feed.Tap{Inner: inner, Hub: hub})
	n.Store.SetObserver(n.poll)
	n.jnl.Store(j)
	n.hub.Store(hub)
}

// Promote turns an unpromoted replica into a writing primary: the follower
// stops with all it applied durable, its directory re-opens as the journal,
// attach runs as for a booted primary, and EPP takes writes. Fencing the
// old primary is the caller's job.
func (n *Node) Promote() error {
	if n.Follower == nil || !n.EPP.ReadOnly() {
		return errors.New("node: not an unpromoted replica")
	}
	j, err := n.Follower.Promote(journal.Options{Mode: n.cfg.Mode})
	if err != nil {
		return err
	}
	n.attach(j)
	n.EPP.SetReadOnly(false)
	return nil
}

// Close tears the node down: EPP first, so no client mutation is in flight;
// then the follower, replication and the other surfaces; then the hub; the
// journal last, so every acknowledged mutation is on disk. It returns the
// close failures, a replica's terminal replication error and every
// surface's ServeErr, joined. A second Close returns nil.
func (n *Node) Close() error {
	if n.closed.Swap(true) {
		return nil
	}
	errs := []error{n.EPP.Close()}
	if f := n.Follower; f != nil {
		errs = append(errs, f.Err(), f.Close())
	}
	for _, l := range n.Listeners {
		errs = append(errs, l.srv.Close())
		if s, ok := l.srv.(interface{ ServeErr() error }); ok && s.ServeErr() != nil {
			errs = append(errs, fmt.Errorf("%s: serve error: %w", l.Name, s.ServeErr()))
		}
	}
	if hub := n.hub.Load(); hub != nil {
		hub.Close()
	}
	if j := n.jnl.Load(); j != nil {
		// In async mode this is the last place a quiet run learns that
		// acknowledged mutations were never made durable: Close returns the
		// WAL's sticky error.
		if err := j.Close(); err != nil {
			errs = append(errs, fmt.Errorf("journal: recent mutations may NOT be durable: %w", err))
		} else {
			m := j.Metrics()
			n.cfg.Logf("journal: flushed and closed (%d bytes, %d fsyncs)", m.WALBytes, m.WALFsyncs)
		}
	}
	return errors.Join(errs...)
}

// Status is the node's one status document: each component's own Metrics()
// under its name, plus what no component reports of itself — the store's
// counts, the WAL's error and the two lag distributions.
func (n *Node) Status() any {
	doc := map[string]any{
		"store": map[string]any{"shards": n.Store.ShardCount(), "domains": n.Store.Count(), "generation": n.Store.Generation()},
		"epp":   n.EPP.Metrics(),
		"rdap":  n.rdap.Metrics(),
		"whois": n.whois.Metrics(),
		"scope": n.scope.Metrics(),
	}
	if hub := n.hub.Load(); hub != nil {
		doc["feed"] = hub.Metrics()
		doc["feed_fanout_lag"] = lagOf(hub.FanoutLag())
	}
	if j := n.jnl.Load(); j != nil {
		doc["journal"], doc["wal_error"] = j.Metrics(), ""
		if err := j.Err(); err != nil {
			doc["wal_error"] = err.Error()
		}
	}
	if n.source != nil {
		doc["repl_source"] = n.source.Metrics()
	}
	if f := n.Follower; f != nil {
		doc["repl_follower"] = f.Metrics()
		doc["repl_lag"] = lagOf(f.LagResult())
	}
	return doc
}

// lagOf is the status document's summary of a latency distribution.
func lagOf(r loadgen.Result) map[string]any {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return map[string]any{"P50ms": ms(r.P50()), "P99ms": ms(r.P99()), "P999ms": ms(r.P999()), "Samples": r.Requests}
}

// Journal is the writing journal: nil when memory only or not yet promoted.
func (n *Node) Journal() *journal.Journal { return n.jnl.Load() }

// Hub is the event feed: nil on a replica until Promote.
func (n *Node) Hub() *feed.Hub { return n.hub.Load() }

// Addr is the address the named surface listens on, "" if it does not.
func (n *Node) Addr(name string) string {
	for _, l := range n.Listeners {
		if l.Name == name {
			return l.Addr
		}
	}
	return ""
}

func (n *Node) listen(name, addr string, srv server) error {
	if addr == "" {
		return nil
	}
	got, err := srv.Listen(addr)
	if err != nil {
		return err
	}
	n.Listeners = append(n.Listeners, Listener{name, got.String(), srv})
	return nil
}
