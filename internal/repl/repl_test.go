package repl

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"dropzero/internal/dropscope"
	"dropzero/internal/inproc"
	"dropzero/internal/journal"
	"dropzero/internal/model"
	"dropzero/internal/rdap"
	"dropzero/internal/registry"
	"dropzero/internal/simtime"
	"dropzero/internal/whois"
)

var testStart = simtime.Day{Year: 2018, Month: time.January, Dom: 8}

const testRegistrar = 7001

// newPrimary builds a store with a journal in mode attached, in a
// temporary directory, closed when the test ends.
func newPrimary(t *testing.T, mode journal.Mode) (*registry.Store, *journal.Journal) {
	t.Helper()
	store := registry.NewStore(simtime.NewSimClock(testStart.At(0, 0, 0)))
	jnl, _, err := journal.Open(store, journal.Options{Dir: t.TempDir(), Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jnl.Close() })
	store.SetJournal(jnl)
	return store, jnl
}

// newFollower is the package's replica fixture: a follower into an empty
// store of shards shards (0: the GOMAXPROCS default), not started, closed
// when the test ends. cfg.Dir defaults to a temporary directory, cfg.Dial
// to a pipe to src.
func newFollower(t *testing.T, src *Source, shards int, cfg FollowerConfig) (*registry.Store, *Follower) {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	if cfg.Dial == nil {
		cfg.Dial = pipeDialer(src, nil)
	}
	store := registry.NewStoreWithShards(simtime.NewSimClock(testStart.At(0, 0, 0)), shards)
	f, err := NewFollower(store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return store, f
}

// seedPrimary populates n domains (every third one scheduled for deletion
// three days out, so the pending-delete surface has content) and returns
// the domain names.
func seedPrimary(t *testing.T, store *registry.Store, n int) []string {
	t.Helper()
	store.AddRegistrar(model.Registrar{IANAID: testRegistrar, Name: "Repl Test Registrar"})
	names := make([]string, 0, n)
	dropDay := testStart.AddDays(3)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("repl-seed-%04d.com", i)
		at := testStart.At(1, 0, i%60)
		if _, err := store.CreateAt(name, testRegistrar, 1, at); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			if err := store.MarkPendingDelete(name, at.Add(time.Hour), dropDay); err != nil {
				t.Fatal(err)
			}
		}
		names = append(names, name)
	}
	return names
}

// pipeDialer returns a Follower Dial that connects to src over an
// in-process pipe. wrap, when non-nil, intercepts the follower's side of
// each new connection (fault injection).
func pipeDialer(src *Source, wrap func(net.Conn) net.Conn) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		client, server := net.Pipe()
		src.ServeConn(server)
		if wrap != nil {
			return wrap(client), nil
		}
		return client, nil
	}
}

// waitApplied polls until the follower has applied seq or the deadline
// passes.
func waitApplied(t *testing.T, f *Follower, seq uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for f.AppliedSeq() < seq {
		if err := f.Err(); err != nil {
			t.Fatalf("follower died at seq %d waiting for %d: %v", f.AppliedSeq(), seq, err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at seq %d waiting for %d", f.AppliedSeq(), seq)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// surface is one rendered read: status, body bytes and the cache validator.
type surface struct {
	status int
	etag   string
	body   string
}

// renderSurfaces renders every read surface a drop-catch client hits —
// RDAP domain lookups (hits and a miss), the dropscope pending-delete list,
// and WHOIS — against one store, ETags included.
func renderSurfaces(t *testing.T, store *registry.Store, names []string) map[string]surface {
	t.Helper()
	out := make(map[string]surface)

	rdapClient := inproc.Client(rdap.NewServer(store, rdap.ServerConfig{}).Handler())
	get := func(key, url string) {
		t.Helper()
		resp, err := rdapClient.Get(url)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		out[key] = surface{status: resp.StatusCode, etag: resp.Header.Get("ETag"), body: string(body)}
	}
	for _, name := range names {
		get("rdap/"+name, "http://rdap/domain/"+name)
	}
	get("rdap/miss", "http://rdap/domain/never-registered.com")

	scopeClient := inproc.Client(dropscope.NewServer(store).Handler())
	resp, err := scopeClient.Get("http://scope/pendingdelete?date=" + testStart.AddDays(3).String())
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	out["dropscope"] = surface{status: resp.StatusCode, etag: resp.Header.Get("ETag"), body: string(body)}

	wsrv := whois.NewServer(store)
	for _, name := range names {
		client, server := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			wsrv.ServeConn(server)
			server.Close()
		}()
		if _, err := io.WriteString(client, name+"\r\n"); err != nil {
			t.Fatal(err)
		}
		reply, err := io.ReadAll(client)
		if err != nil {
			t.Fatal(err)
		}
		client.Close()
		<-done
		out["whois/"+name] = surface{status: 200, body: string(reply)}
	}
	return out
}

// diffSurfaces asserts two rendered surface sets are byte-identical.
func diffSurfaces(t *testing.T, primary, replica map[string]surface) {
	t.Helper()
	if len(primary) != len(replica) {
		t.Fatalf("surface count: primary %d, replica %d", len(primary), len(replica))
	}
	for key, want := range primary {
		got, ok := replica[key]
		if !ok {
			t.Errorf("%s: missing on replica", key)
			continue
		}
		if got.status != want.status {
			t.Errorf("%s: status %d on replica, %d on primary", key, got.status, want.status)
		}
		if got.etag != want.etag {
			t.Errorf("%s: ETag %q on replica, %q on primary", key, got.etag, want.etag)
		}
		if got.body != want.body {
			t.Errorf("%s: body diverged:\nprimary: %q\nreplica: %q", key, want.body, got.body)
		}
	}
}

// mutatePrimary drives a deterministic burst of post-seed mutations.
func mutatePrimary(t *testing.T, store *registry.Store, names []string, round int) {
	t.Helper()
	at := testStart.At(6+round, 0, 0)
	for i, name := range names {
		switch i % 4 {
		case 0:
			if err := store.TouchAt(name, testRegistrar, at.Add(time.Duration(i)*time.Second)); err != nil {
				t.Fatal(err)
			}
		case 1:
			if err := store.Renew(name, testRegistrar, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 20; i++ {
		name := fmt.Sprintf("repl-new-%d-%03d.com", round, i)
		if _, err := store.CreateAt(name, testRegistrar, 2, at.Add(time.Minute)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReplicaMatchesPrimaryBytes is the tentpole differential: a fresh
// follower bootstraps from snapshot + WAL tail, then tails live mutations,
// and at every settled point all three read surfaces — RDAP, WHOIS and the
// dropscope pending-delete list, ETags included — render byte-identically
// to the primary's at the same generation.
func TestReplicaMatchesPrimaryBytes(t *testing.T) {
	store, jnl := newPrimary(t, journal.ModeSync)
	names := seedPrimary(t, store, 120)

	// Snapshot mid-history so bootstrap exercises snapshot + tail, then
	// keep writing so there is a tail to ship.
	if err := jnl.Snapshot(nil); err != nil {
		t.Fatal(err)
	}
	mutatePrimary(t, store, names, 0)

	src := NewSource(jnl, SourceConfig{})
	defer src.Close()

	fstore, f := newFollower(t, src, 0, FollowerConfig{})
	f.Start()
	waitApplied(t, f, jnl.LastSeq())

	sample := append([]string{}, names[:8]...)
	sample = append(sample, "repl-new-0-000.com", "repl-new-0-019.com")
	if pg, fg := store.Generation(), fstore.Generation(); pg != fg {
		t.Fatalf("generation diverged: primary %d, replica %d", pg, fg)
	}
	diffSurfaces(t, renderSurfaces(t, store, sample), renderSurfaces(t, fstore, sample))

	// Live tail: mutate while the follower is connected, settle, re-check.
	mutatePrimary(t, store, names, 1)
	waitApplied(t, f, jnl.LastSeq())
	sample = append(sample, "repl-new-1-000.com")
	if pg, fg := store.Generation(), fstore.Generation(); pg != fg {
		t.Fatalf("generation diverged after live tail: primary %d, replica %d", pg, fg)
	}
	diffSurfaces(t, renderSurfaces(t, store, sample), renderSurfaces(t, fstore, sample))

	// The follower's log is its primary's: the same frames, byte for byte,
	// after the snapshot it bootstrapped from.
	snapSeq := snapshotSeq(t, jnl.Dir())
	var logs [2][]byte
	for i, dir := range []string{jnl.Dir(), f.cfg.Dir} {
		tr := journal.NewTailReader(dir, snapSeq)
		var err error
		logs[i], _, _, err = tr.Next(nil, jnl.LastSeq(), 1<<30)
		tr.Close()
		if err != nil {
			t.Fatalf("read %s after seq %d: %v", dir, snapSeq, err)
		}
	}
	if len(logs[0]) == 0 || !bytes.Equal(logs[0], logs[1]) {
		t.Fatalf("follower log after seq %d: %d bytes, primary's %d, not byte-identical", snapSeq, len(logs[1]), len(logs[0]))
	}

	m := f.Metrics()
	if m.Snapshots != 1 {
		t.Errorf("follower installed %d snapshots, want 1", m.Snapshots)
	}
	if m.Records == 0 || m.Batches == 0 {
		t.Errorf("follower metrics empty: %+v", m)
	}
	sm := src.Metrics()
	if sm.SnapshotsSent != 1 || sm.ShippedRecords == 0 {
		t.Errorf("source metrics off: %+v", sm)
	}
}

// TestFollowerLagCoversEveryBatch: the time-lag distribution holds one
// observation per applied batch of the run, and its maximum is the peak the
// metrics report.
func TestFollowerLagCoversEveryBatch(t *testing.T) {
	store, jnl := newPrimary(t, journal.ModeSync)
	names := seedPrimary(t, store, 30)
	src := NewSource(jnl, SourceConfig{})
	defer src.Close()
	_, f := newFollower(t, src, 0, FollowerConfig{})
	f.Start()
	waitApplied(t, f, jnl.LastSeq())
	for round := 0; round < 3; round++ {
		mutatePrimary(t, store, names, round)
		waitApplied(t, f, jnl.LastSeq())
	}
	f.Close() // the receive loop has returned: no batch is between apply and record
	m, lag := f.Metrics(), f.LagResult()
	if m.Batches < 2 || lag.Requests != m.Batches {
		t.Fatalf("%d lag observations for %d batches", lag.Requests, m.Batches)
	}
	if p100 := lag.Percentile(100); p100 != m.PeakTimeLag {
		t.Fatalf("P100 %v, PeakTimeLag %v", p100, m.PeakTimeLag)
	}
}

// TestFollowerCatchUpBatchAppliesOnEveryCore: a bootstrapping follower
// receives the primary's WAL tail in batches of thousands of records and
// applies each across the shards on every core; creates, state changes and
// a day's purges land in the store a one-worker apply builds — same
// generation, same rank-ordered deletion archive, same bytes on every read
// surface.
func TestFollowerCatchUpBatchAppliesOnEveryCore(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const dropped = 1024
	clock := simtime.NewSimClock(testStart.At(0, 0, 0))
	store := registry.NewStoreWithShards(clock, 8)
	jnl, _, err := journal.Open(store, journal.Options{Dir: t.TempDir(), Mode: journal.ModeAsync})
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	store.SetJournal(jnl)
	names := seedPrimary(t, store, 3*dropped)
	dropDay := testStart.AddDays(3)
	clock.Set(dropDay.At(19, 0, 0))
	runner := registry.NewDropRunner(store, registry.DropConfig{StartHour: 19, BaseRatePerSec: 100})
	events, err := runner.Run(dropDay, rand.New(rand.NewSource(1)))
	if err != nil || len(events) != dropped {
		t.Fatalf("dropped %d names: %v", len(events), err)
	}
	if err := jnl.Sync(); err != nil {
		t.Fatal(err)
	}

	src := NewSource(jnl, SourceConfig{})
	defer src.Close()
	fstore, f := newFollower(t, src, 8, FollowerConfig{})
	f.Start()
	waitApplied(t, f, jnl.LastSeq())

	if m := f.Metrics(); m.Records < 5*dropped || m.Records < 1000*m.Batches {
		t.Fatalf("%d records in %d batches: the tail did not arrive as catch-up batches", m.Records, m.Batches)
	}
	if pg, fg := store.Generation(), fstore.Generation(); pg != fg {
		t.Fatalf("generation diverged: primary %d, replica %d", pg, fg)
	}
	if got := fstore.Deletions(dropDay); !slices.EqualFunc(got, events, model.DeletionEvent.Equal) {
		t.Fatalf("replica archived %d deletions on %v, primary %d, or in another order", len(got), dropDay, len(events))
	}
	sample := append([]string{}, names[:12]...)
	sample = append(sample, names[len(names)-6:]...)
	diffSurfaces(t, renderSurfaces(t, store, sample), renderSurfaces(t, fstore, sample))
}

// limitConn severs a connection after the follower has read n bytes,
// simulating a transport cut at an exact byte offset.
type limitConn struct {
	net.Conn
	remaining int64
}

func (c *limitConn) Read(p []byte) (int, error) {
	if c.remaining <= 0 {
		c.Conn.Close()
		return 0, fmt.Errorf("limitConn: injected cut")
	}
	if int64(len(p)) > c.remaining {
		p = p[:c.remaining]
	}
	n, err := c.Conn.Read(p)
	c.remaining -= int64(n)
	return n, err
}

// resumeHarness runs the disconnect/reconnect scenario: the first
// connection is cut after cutBytes received, subsequent connections are
// clean, and the follower must converge to the primary byte-for-byte with
// no duplicated or skipped sequence.
func resumeHarness(t *testing.T, cutBytes int64, cfg SourceConfig) {
	store, jnl := newPrimary(t, journal.ModeSync)
	names := seedPrimary(t, store, 120)
	if err := jnl.Snapshot(nil); err != nil {
		t.Fatal(err)
	}
	mutatePrimary(t, store, names, 0)
	snapSeq := snapshotSeq(t, jnl.Dir())

	src := NewSource(jnl, cfg)
	defer src.Close()

	var conns atomic.Int64
	dial := pipeDialer(src, nil)
	fstore, f := newFollower(t, src, 0, FollowerConfig{
		Dial: func() (net.Conn, error) {
			conn, err := dial()
			if conns.Add(1) == 1 && err == nil {
				conn = &limitConn{Conn: conn, remaining: cutBytes}
			}
			return conn, err
		},
		reconnectWait: 10 * time.Millisecond,
	})
	f.Start()
	waitApplied(t, f, jnl.LastSeq())

	if got := conns.Load(); got < 2 {
		t.Fatalf("cut at %d bytes did not force a reconnect (%d connections)", cutBytes, got)
	}
	m := f.Metrics()
	if m.Reconnects == 0 {
		t.Errorf("no reconnects recorded: %+v", m)
	}
	// Exactly-once application: every sequence after the snapshot applied
	// exactly once, none skipped, none doubled.
	if want := jnl.LastSeq() - snapSeq; m.Records != want {
		t.Errorf("applied %d records for seqs %d..%d, want exactly %d", m.Records, snapSeq+1, jnl.LastSeq(), want)
	}
	if pg, fg := store.Generation(), fstore.Generation(); pg != fg {
		t.Fatalf("generation diverged after resume: primary %d, replica %d", pg, fg)
	}
	sample := append([]string{}, names[:6]...)
	sample = append(sample, "repl-new-0-007.com")
	diffSurfaces(t, renderSurfaces(t, store, sample), renderSurfaces(t, fstore, sample))

	// The shipped log is a real journal directory: a restarted follower
	// process recovers it locally to the same position.
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	rstore, rf := newFollower(t, src, 0, FollowerConfig{Dir: f.cfg.Dir})
	if rf.AppliedSeq() != jnl.LastSeq() {
		t.Fatalf("restarted follower recovered to seq %d, want %d", rf.AppliedSeq(), jnl.LastSeq())
	}
	diffSurfaces(t, renderSurfaces(t, store, sample), renderSurfaces(t, rstore, sample))
}

// snapshotSeq reads the newest snapshot's covered sequence.
func snapshotSeq(t *testing.T, dir string) uint64 {
	t.Helper()
	_, seq, ok, err := journal.LatestSnapshotPath(dir)
	if err != nil || !ok {
		t.Fatalf("no snapshot in %s: %v", dir, err)
	}
	return seq
}

// TestFollowerResumeMidSnapshot cuts the transport while the snapshot is
// in flight: nothing was installed, so the retry re-requests from zero and
// converges.
func TestFollowerResumeMidSnapshot(t *testing.T) {
	resumeHarness(t, 2_000, SourceConfig{}) // well inside the snapshot body
}

// TestFollowerResumeMidTail cuts the transport after the snapshot and some
// tail frames have been applied: the retry resumes from the applied
// position, with the contiguity checks ruling out duplicates and gaps.
func TestFollowerResumeMidTail(t *testing.T) {
	store := registry.NewStore(simtime.NewSimClock(testStart.At(0, 0, 0)))
	dir := t.TempDir()
	jnl, _, err := journal.Open(store, journal.Options{Dir: dir, Mode: journal.ModeSync})
	if err != nil {
		t.Fatal(err)
	}
	store.SetJournal(jnl)
	seedPrimary(t, store, 120)
	if err := jnl.Snapshot(nil); err != nil {
		t.Fatal(err)
	}
	jnl.Close()
	path, _, ok, err := journal.LatestSnapshotPath(dir)
	if err != nil || !ok {
		t.Fatal("no snapshot written")
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Small frame batches so the tail ships incrementally, and a cut a few
	// batches past the snapshot: some tail frames land, then the wire dies.
	resumeHarness(t, info.Size()+4_096, SourceConfig{batchBytes: 2_048})
}

// TestFollowerRejectsEmptyBatch: a frames message whose header claims
// records (first = applied+1, last ≥ first) but whose body holds no frame is
// a lying peer, so a transport error: the message loop returns, nothing is
// applied or logged, the replica is not poisoned, and the redial applies the
// next well-formed batch.
func TestFollowerRejectsEmptyBatch(t *testing.T) {
	store, jnl := newPrimary(t, journal.ModeSync)
	seedPrimary(t, store, 20)
	src := NewSource(jnl, SourceConfig{})
	defer src.Close()

	fstore, f := newFollower(t, src, 0, FollowerConfig{reconnectWait: 10 * time.Millisecond})

	client, server := net.Pipe()
	defer server.Close()
	consumed := make(chan error, 1)
	go func() { consumed <- f.consume(client) }()
	var hs [len(handshakeMagic) + 8]byte
	if _, err := io.ReadFull(server, hs[:]); err != nil {
		t.Fatal(err)
	}
	msg := make([]byte, msgHeader+framesHeader)
	binary.LittleEndian.PutUint64(msg[msgHeader:], f.AppliedSeq()+1)
	binary.LittleEndian.PutUint64(msg[msgHeader+8:], f.AppliedSeq()+3)
	binary.LittleEndian.PutUint64(msg[msgHeader+16:], f.AppliedSeq()+3)
	if err := writeMsg(server, time.Second, msgFrames, msg); err != nil {
		t.Fatal(err)
	}
	if err := <-consumed; err == nil {
		t.Fatal("follower accepted a frame batch with no frames")
	}
	if err := f.Err(); err != nil {
		t.Fatalf("empty batch poisoned the replica: %v", err)
	}
	if f.AppliedSeq() != 0 || f.log.LastSeq() != 0 || f.log.Metrics().WALBytes != 0 || fstore.Generation() != 0 {
		t.Fatalf("empty batch left a trace: applied %d, log at seq %d with %d bytes, generation %d",
			f.AppliedSeq(), f.log.LastSeq(), f.log.Metrics().WALBytes, fstore.Generation())
	}

	f.Start()
	waitApplied(t, f, jnl.LastSeq())
	if pg, fg := store.Generation(), fstore.Generation(); pg != fg {
		t.Fatalf("generation after the well-formed batch: primary %d, replica %d", pg, fg)
	}
}

// TestFollowerAheadOfPrimaryIsRefused: a follower that holds more of primary
// A's history than primary B has written is refused by B at the handshake —
// terminally, naming both positions — and B's later records never land on
// top of A's state.
func TestFollowerAheadOfPrimaryIsRefused(t *testing.T) {
	storeA, jnlA := newPrimary(t, journal.ModeSync)
	seedPrimary(t, storeA, 30)
	srcA := NewSource(jnlA, SourceConfig{})
	defer srcA.Close()
	dir := t.TempDir()
	_, f := newFollower(t, srcA, 0, FollowerConfig{Dir: dir})
	f.Start()
	waitApplied(t, f, jnlA.LastSeq())
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	storeB, jnlB := newPrimary(t, journal.ModeSync)
	namesB := seedPrimary(t, storeB, 20)
	if jnlB.LastSeq() >= jnlA.LastSeq() {
		t.Fatalf("primary B at seq %d is not behind A's %d", jnlB.LastSeq(), jnlA.LastSeq())
	}
	srcB := NewSource(jnlB, SourceConfig{})
	defer srcB.Close()
	fstore, f := newFollower(t, srcB, 0, FollowerConfig{Dir: dir, reconnectWait: 10 * time.Millisecond})
	gen := fstore.Generation()
	f.Start()
	for deadline := time.Now().Add(10 * time.Second); f.Err() == nil; time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("follower at seq %d idles against primary B at seq %d instead of being refused", f.AppliedSeq(), jnlB.LastSeq())
		}
	}
	want := fmt.Sprintf("follower at seq %d is ahead of this primary's log at seq %d", jnlA.LastSeq(), jnlB.LastSeq())
	if msg := f.Err().Error(); !strings.Contains(msg, want) {
		t.Fatalf("refusal %q does not say %q", msg, want)
	}

	mutatePrimary(t, storeB, namesB, 0)
	if jnlB.LastSeq() <= jnlA.LastSeq() {
		t.Fatalf("primary B at seq %d has not passed A's %d", jnlB.LastSeq(), jnlA.LastSeq())
	}
	time.Sleep(100 * time.Millisecond)
	if g := fstore.Generation(); g != gen || f.AppliedSeq() != jnlA.LastSeq() {
		t.Fatalf("refused follower moved: generation %d → %d, applied seq %d (held %d)", gen, g, f.AppliedSeq(), jnlA.LastSeq())
	}
}

// TestFollowerSnapshotSizeIsAClaim: a peer that opens a snapshot transfer
// declaring the largest size allowed, sends one small chunk and goes away has
// cost the follower that chunk — not the declared size held for as long as
// the peer cares to keep the connection — and left a transport error behind:
// nothing applied, logged or poisoned, and the redial bootstraps.
func TestFollowerSnapshotSizeIsAClaim(t *testing.T) {
	store, jnl := newPrimary(t, journal.ModeSync)
	seedPrimary(t, store, 20)
	src := NewSource(jnl, SourceConfig{})
	defer src.Close()

	dir := t.TempDir()
	fstore, f := newFollower(t, src, 0, FollowerConfig{Dir: dir, reconnectWait: 10 * time.Millisecond})

	client, server := net.Pipe()
	defer server.Close()
	consumed := make(chan error, 1)
	go func() { consumed <- f.consume(client) }()
	var hs [len(handshakeMagic) + 8]byte
	if _, err := io.ReadFull(server, hs[:]); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	begin := make([]byte, msgHeader+snapBeginBody)
	binary.LittleEndian.PutUint64(begin[msgHeader:], 5)
	binary.LittleEndian.PutUint64(begin[msgHeader+8:], maxSnapshotBytes)
	if err := writeMsg(server, time.Second, msgSnapBegin, begin); err != nil {
		t.Fatal(err)
	}
	// The pipe is unbuffered: when the chunk's write returns, the follower
	// has read it and so has handled the begin.
	if err := writeMsg(server, time.Second, msgSnapChunk, make([]byte, msgHeader+1<<10)); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= 1<<20 {
		t.Errorf("a declared size of %d bytes and a 1 KiB chunk grew the follower's heap by %d bytes", uint64(maxSnapshotBytes), grew)
	}
	server.Close()
	if err := <-consumed; err == nil {
		t.Fatal("follower took a snapshot transfer that ended after one chunk")
	}
	if err := f.Err(); err != nil {
		t.Fatalf("abandoned snapshot transfer poisoned the replica: %v", err)
	}
	if f.AppliedSeq() != 0 || f.log.LastSeq() != 0 || f.log.Metrics().WALBytes != 0 || fstore.Generation() != 0 {
		t.Fatalf("abandoned snapshot transfer left a trace: applied %d, log at seq %d with %d bytes, generation %d",
			f.AppliedSeq(), f.log.LastSeq(), f.log.Metrics().WALBytes, fstore.Generation())
	}
	if _, _, ok, err := journal.LatestSnapshotPath(dir); ok || err != nil {
		t.Fatalf("abandoned snapshot transfer left a snapshot file behind (%v)", err)
	}

	f.Start()
	waitApplied(t, f, jnl.LastSeq())
	if pg, fg := store.Generation(), fstore.Generation(); pg != fg {
		t.Fatalf("generation after the redial: primary %d, replica %d", pg, fg)
	}
}

// TestFailoverZeroLoss is the kill-the-primary drill: semi-sync primary
// with two followers, concurrent client creates, abrupt primary death,
// promote the most advanced follower — every create that was acknowledged
// to its caller must exist on the promoted store, and the promoted store
// must accept new writes.
func TestFailoverZeroLoss(t *testing.T) {
	store, jnl := newPrimary(t, journal.ModeSync)
	src := NewSource(jnl, SourceConfig{SyncFollowers: 1, syncTimeout: 5 * time.Second})
	store.SetJournal(&SyncJournal{J: jnl, S: src})
	store.AddRegistrar(model.Registrar{IANAID: testRegistrar, Name: "Repl Test Registrar"})

	var primaryDown atomic.Bool
	dial := pipeDialer(src, nil)
	follower := func() (*Follower, *registry.Store) {
		fstore, f := newFollower(t, src, 0, FollowerConfig{
			Dial: func() (net.Conn, error) {
				if primaryDown.Load() {
					return nil, fmt.Errorf("primary is down")
				}
				return dial()
			},
			reconnectWait: 10 * time.Millisecond,
		})
		f.Start()
		return f, fstore
	}
	f1, fstore1 := follower()
	f2, fstore2 := follower()

	// Concurrent clients create domains; each success is an acknowledged
	// mutation — fsynced on the primary AND applied+fsynced on a follower.
	const writers, perWriter = 4, 60
	var (
		ackMu sync.Mutex
		acked []string
		wg    sync.WaitGroup
	)
	kill := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			at := testStart.At(3, 0, 0)
			for i := 0; i < perWriter; i++ {
				name := fmt.Sprintf("failover-%d-%03d.com", w, i)
				if _, err := store.CreateAt(name, testRegistrar, 1, at); err != nil {
					return // primary died under us; nothing acked from here on
				}
				ackMu.Lock()
				acked = append(acked, name)
				ackMu.Unlock()
				if w == 0 && i == perWriter/3 {
					close(kill)
				}
			}
		}(w)
	}

	// Kill the primary abruptly mid-burst: sever replication first (acks
	// stop, in-flight WaitSynced calls fail), then the journal.
	<-kill
	primaryDown.Store(true)
	src.Close()
	wg.Wait()
	jnl.Close()

	if err := f1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f2.Close(); err != nil {
		t.Fatal(err)
	}
	promoted, pstore := f1, fstore1
	if f2.AppliedSeq() > f1.AppliedSeq() {
		promoted, pstore = f2, fstore2
	}
	pj, err := promoted.Promote(journal.Options{Mode: journal.ModeSync})
	if err != nil {
		t.Fatal(err)
	}
	defer pj.Close()
	pstore.SetJournal(pj)

	ackMu.Lock()
	defer ackMu.Unlock()
	if len(acked) == 0 {
		t.Fatal("no creates were acknowledged before the kill; test proves nothing")
	}
	missing := 0
	for _, name := range acked {
		if _, err := pstore.Get(name); err != nil {
			missing++
			t.Errorf("acked create %q lost after failover: %v", name, err)
		}
	}
	t.Logf("failover: %d acked creates, %d lost, promoted at seq %d", len(acked), missing, promoted.AppliedSeq())

	// The promoted store is a writable primary: new mutations journal into
	// the follower's own directory.
	before := pj.LastSeq()
	if _, err := pstore.CreateAt("after-failover.com", testRegistrar, 1, testStart.At(4, 0, 0)); err != nil {
		t.Fatalf("promoted store rejected a create: %v", err)
	}
	if pj.LastSeq() != before+1 {
		t.Fatalf("promoted journal did not advance: %d -> %d", before, pj.LastSeq())
	}
	if _, err := pstore.Get("after-failover.com"); err != nil {
		t.Fatal(err)
	}
}

// TestSyncJournalRefusesAsyncJournal: an async journal hands out no
// durability wait, so a SyncJournal over one would acknowledge every
// mutation with no follower holding it. Now the mutation's wait fails and
// names the misuse.
func TestSyncJournalRefusesAsyncJournal(t *testing.T) {
	store, jnl := newPrimary(t, journal.ModeAsync)
	src := NewSource(jnl, SourceConfig{SyncFollowers: 1, syncTimeout: 50 * time.Millisecond})
	defer src.Close()
	store.SetJournal(&SyncJournal{J: jnl, S: src})
	store.AddRegistrar(model.Registrar{IANAID: testRegistrar, Name: "Repl Test Registrar"})
	_, err := store.CreateAt("unsynced.com", testRegistrar, 1, testStart.At(3, 0, 0))
	if !errors.Is(err, errSyncJournalAsync) {
		t.Fatalf("create through a SyncJournal over an async journal: %v, want %v", err, errSyncJournalAsync)
	}
}

// TestWaitSyncedTimesOutWithoutQuorum pins the no-overclaim contract: with
// semi-sync armed and no follower connected, WaitSynced fails rather than
// pretending. The failure is indeterminate, and its error says so: the
// create is applied on the primary, where a later info finds it.
func TestWaitSyncedTimesOutWithoutQuorum(t *testing.T) {
	store, jnl := newPrimary(t, journal.ModeSync)
	src := NewSource(jnl, SourceConfig{SyncFollowers: 1, syncTimeout: 50 * time.Millisecond})
	defer src.Close()
	store.SetJournal(&SyncJournal{J: jnl, S: src})
	store.AddRegistrar(model.Registrar{IANAID: testRegistrar, Name: "Repl Test Registrar"})
	_, err := store.CreateAt("unsynced.com", testRegistrar, 1, testStart.At(3, 0, 0))
	if err == nil {
		t.Fatal("create acknowledged with no follower quorum")
	}
	const want = "within 50ms: the mutation is applied and durable on this primary and will replicate, so a later info tells its outcome"
	if !strings.Contains(err.Error(), "repl: no follower quorum for seq ") || !strings.HasSuffix(err.Error(), want) {
		t.Fatalf("create with no follower quorum: %v, want the no-quorum error ending %q", err, want)
	}
	if d, err := store.Get("unsynced.com"); err != nil || d.RegistrarID != testRegistrar {
		t.Fatalf("info after the quorum timeout: %+v, %v; want the applied registration", d, err)
	}
}

// TestForgedAckIsNotCounted: a peer that completes the handshake and acks
// a sequence its stream was never sent is not counted toward the quorum —
// the next sync create still fails for want of one — and its connection is
// closed with a logged error.
func TestForgedAckIsNotCounted(t *testing.T) {
	store, jnl := newPrimary(t, journal.ModeSync)
	var logMu sync.Mutex
	var logged []string
	src := NewSource(jnl, SourceConfig{SyncFollowers: 1, syncTimeout: 200 * time.Millisecond,
		Logf: func(format string, args ...any) {
			logMu.Lock()
			logged = append(logged, fmt.Sprintf(format, args...))
			logMu.Unlock()
		}})
	defer src.Close()
	store.SetJournal(&SyncJournal{J: jnl, S: src})
	store.AddRegistrar(model.Registrar{IANAID: testRegistrar, Name: "Repl Test Registrar"})
	const noQuorum = "no follower quorum"
	if _, err := store.CreateAt("control.com", testRegistrar, 1, testStart.At(3, 0, 0)); err == nil || !strings.Contains(err.Error(), noQuorum) {
		t.Fatalf("create with no follower: %v, want %q", err, noQuorum)
	}

	client, server := net.Pipe()
	defer client.Close()
	src.ServeConn(server)
	hs := make([]byte, len(handshakeMagic)+8)
	copy(hs, handshakeMagic)
	if _, err := client.Write(hs); err != nil {
		t.Fatal(err)
	}
	drained := make(chan struct{})
	go func() { _, _ = io.Copy(io.Discard, client); close(drained) }()
	ack := make([]byte, msgHeader+8)
	binary.LittleEndian.PutUint64(ack[msgHeader:], math.MaxUint64)
	if err := writeMsg(client, time.Second, msgAck, ack); err != nil {
		t.Fatal(err)
	}
	if _, err := store.CreateAt("forged.com", testRegistrar, 1, testStart.At(3, 0, 1)); err == nil || !strings.Contains(err.Error(), noQuorum) {
		t.Fatalf("create after a forged ack: %v, want %q", err, noQuorum)
	}
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		t.Fatal("the forging connection is still open")
	}
	// The refusal is logged before the connection is closed.
	logMu.Lock()
	defer logMu.Unlock()
	if !slices.ContainsFunc(logged, func(line string) bool { return strings.Contains(line, "was sent; closing") }) {
		t.Errorf("no logged refusal of the forged ack in %q", logged)
	}
}

// A connection's read buffer follows its messages: a snapshot-chunk-sized
// message grows it, large and small messages in turn reuse it, and it is let
// go after shrinkAfter small messages in a row.
func TestMsgReaderShrinksAfterSmallMessages(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	sizes := []int{snapChunkBytes, 16, snapChunkBytes, 200, defaultBatchBytes}
	for range shrinkAfter {
		sizes = append(sizes, 64)
	}
	go func() {
		for _, n := range sizes {
			if err := writeMsg(server, time.Second, msgFrames, make([]byte, msgHeader+n)); err != nil {
				return
			}
		}
	}()
	var in msgReader
	var large *byte
	for i, n := range sizes {
		_, payload, err := in.read(client, time.Second)
		if err != nil || len(payload) != n {
			t.Fatalf("message %d: %d bytes, %v; want %d", i, len(payload), err, n)
		}
		switch {
		case i == 0:
			large = unsafe.SliceData(in.buf)
		case i < 4 && unsafe.SliceData(in.buf) != large:
			t.Fatalf("message %d (%d bytes) reallocated the %d-byte buffer", i, n, snapChunkBytes)
		case i == 4:
			large = unsafe.SliceData(in.buf) // grown for the catch-up batch
		case i < len(sizes)-1 && unsafe.SliceData(in.buf) != large:
			t.Fatalf("small message %d let the buffer go before %d in a row", i, shrinkAfter)
		}
	}
	if c := cap(in.buf); c > retainMsgBytes {
		t.Fatalf("after %d small messages the buffer holds %d bytes, want at most %d", shrinkAfter, c, retainMsgBytes)
	}
}

// A follower that bootstrapped over a snapshot larger than one chunk and
// caught up over a WAL tail in batches of thousands of records keeps neither
// the chunk-sized read buffer nor the batch-sized decode scratch for its
// stream of single-record batches.
func TestFollowerReleasesSnapshotReadBuffer(t *testing.T) {
	store, jnl := newPrimary(t, journal.ModeAsync)
	names := seedPrimary(t, store, 20_000)
	if err := jnl.Snapshot(nil); err != nil {
		t.Fatal(err)
	}
	path, _, _, err := journal.LatestSnapshotPath(jnl.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() <= snapChunkBytes {
		t.Fatalf("snapshot of %v bytes (%v), want more than one %d-byte chunk", fi.Size(), err, snapChunkBytes)
	}
	snapSeq := jnl.LastSeq()
	for _, name := range names[:5_000] {
		if err := store.Renew(name, testRegistrar, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := jnl.Sync(); err != nil {
		t.Fatal(err)
	}

	src := NewSource(jnl, SourceConfig{})
	defer src.Close()
	fstore := registry.NewStore(simtime.NewSimClock(testStart.At(0, 0, 0)))
	f, err := NewFollower(fstore, FollowerConfig{Dir: t.TempDir(), Dial: pipeDialer(src, nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.Start()
	waitApplied(t, f, jnl.LastSeq())
	m := f.Metrics()
	if m.Snapshots != 1 || m.Records != jnl.LastSeq()-snapSeq || m.Records/m.Batches <= retainMsgBytes/uint64(mutationBytes) {
		t.Fatalf("bootstrap: %d snapshots, %d records in %d batches; want 1 snapshot and batches of more than %d records",
			m.Snapshots, m.Records, m.Batches, retainMsgBytes/mutationBytes)
	}
	for _, name := range names[:2*shrinkAfter] {
		if err := store.Renew(name, testRegistrar, 1); err != nil {
			t.Fatal(err)
		}
		if err := jnl.Sync(); err != nil {
			t.Fatal(err)
		}
		waitApplied(t, f, jnl.LastSeq())
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if got := f.Metrics().Batches - m.Batches; got < 2*shrinkAfter {
		t.Fatalf("%d single-record batches, want at least %d", got, 2*shrinkAfter)
	}
	if b := f.scratch.Load(); b > retainMsgBytes {
		t.Fatalf("follower keeps %d bytes of read buffer and decode scratch after %d single-record batches, want at most %d", b, 2*shrinkAfter, retainMsgBytes)
	}
}
