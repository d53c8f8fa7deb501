package repl

import (
	"encoding/binary"
	"fmt"
	"net"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dropzero/internal/journal"
	"dropzero/internal/loadgen"
	"dropzero/internal/par"
	"dropzero/internal/registry"
)

// FollowerConfig configures one replica's connection to its primary.
type FollowerConfig struct {
	// Dir is the follower's local journal directory: shipped frames are
	// persisted here byte-identical to the primary's segments, so a restart
	// recovers locally (journal.Open) and resumes from where it stopped,
	// and promotion re-opens the same directory as a writer.
	Dir string
	// Addr is the primary's replication address. Ignored when Dial is set.
	Addr string
	// Dial overrides the transport, for in-process tests and fault
	// injection. Each (re)connection calls it once.
	Dial func() (net.Conn, error)
	// ReconnectWait is the pause between connection attempts (default
	// 500ms).
	ReconnectWait time.Duration
	// Logf receives connection lifecycle lines; nil discards them.
	Logf func(format string, args ...any)
}

const (
	// readTimeout bounds one message read. The primary heartbeats twenty
	// times per window, so an expiry means the link or the primary is gone
	// and the follower should redial.
	readTimeout = 10 * time.Second
)

func (c *FollowerConfig) defaults() error {
	if c.Dir == "" {
		return fmt.Errorf("repl: FollowerConfig.Dir is required")
	}
	if c.Addr == "" && c.Dial == nil {
		return fmt.Errorf("repl: FollowerConfig needs Addr or Dial")
	}
	if c.Dial == nil {
		addr := c.Addr
		c.Dial = func() (net.Conn, error) { return net.DialTimeout("tcp", addr, 10*time.Second) }
	}
	if c.ReconnectWait <= 0 {
		c.ReconnectWait = 500 * time.Millisecond
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return nil
}

// Follower replicates a primary's WAL into a local store and journal
// directory. The loop is: receive a batch of raw frames, validate them
// (CRC, sequence contiguity), append them to the local journal, fsync,
// apply through Store.ApplyBatch, acknowledge. Reads are served from the
// store the whole time — the follower is just another writer to it, one
// that happens to take dictation.
//
// Apply-before-ack plus fsync-before-ack gives the primary's semi-sync
// waiters the exact property promotion needs: an acknowledged sequence is
// both durable and visible on this replica.
//
// The journal stays private until Promote: between AppendFrames and
// ApplyBatch its position runs ahead of the store, so a snapshot taken there
// would claim records the image lacks.
type Follower struct {
	store *registry.Store
	cfg   FollowerConfig
	log   *journal.Journal // never attached to the store: see above

	applied    atomic.Uint64 // last sequence applied to the store
	primarySeq atomic.Uint64 // primary's last appended seq, from messages
	records    atomic.Uint64
	batches    atomic.Uint64
	snapshots  atomic.Uint64
	reconnects atomic.Uint64
	fatal      atomic.Value // error that ended replication for good

	// Sequence lag is primary-last-seq minus applied at batch receipt, kept
	// as a high-water mark; time lag is each batch's receive-to-applied wall
	// time against the primary's send stamp (one host's clock in tests and
	// the quickstart; across real hosts it inherits clock sync quality).
	peakSeqLag atomic.Uint64
	lag        loadgen.Hist

	// scratch is what consume's read buffer and decode scratch held, in
	// bytes, after the last message it handled.
	scratch atomic.Int64

	mu      sync.Mutex
	conn    net.Conn
	started bool
	closed  bool
	stop    chan struct{}
	done    chan struct{}
}

// NewFollower recovers cfg.Dir into store (which must be empty — a fresh
// process) as a primary's Open does and returns a follower positioned to
// resume after what the local journal already holds. Call Start to begin
// replicating.
func NewFollower(store *registry.Store, cfg FollowerConfig) (*Follower, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	log, rec, err := journal.Open(store, journal.Options{Dir: cfg.Dir, Mode: journal.ModeSync})
	if err != nil {
		return nil, fmt.Errorf("repl: recover follower dir: %w", err)
	}
	last := log.LastSeq()
	f := &Follower{
		store: store,
		cfg:   cfg,
		log:   log,
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	f.applied.Store(last)
	if rec.ReplayedRecords > 0 || rec.SnapshotSeq > 0 {
		cfg.Logf("repl: follower recovered to seq %d (snapshot %d, %d replayed)", last, rec.SnapshotSeq, rec.ReplayedRecords)
	}
	return f, nil
}

// Start launches the replication loop: connect, stream, apply; redial on
// transport errors until Close. Protocol or state errors (a diverged log, a
// primary that reports one) are terminal — Err reports them and the loop
// exits rather than resyncing over a store of unknown lineage.
func (f *Follower) Start() {
	f.mu.Lock()
	if f.started || f.closed {
		f.mu.Unlock()
		return
	}
	f.started = true
	f.mu.Unlock()
	go f.run()
}

func (f *Follower) run() {
	defer close(f.done)
	for {
		select {
		case <-f.stop:
			return
		default:
		}
		conn, err := f.cfg.Dial()
		if err != nil {
			f.cfg.Logf("repl: dial primary: %v", err)
			if !f.sleep(f.cfg.ReconnectWait) {
				return
			}
			continue
		}
		f.mu.Lock()
		if f.closed {
			f.mu.Unlock()
			conn.Close()
			return
		}
		f.conn = conn
		f.mu.Unlock()

		err = f.consume(conn)
		conn.Close()
		f.mu.Lock()
		f.conn = nil
		closed := f.closed
		f.mu.Unlock()
		if closed || f.Err() != nil {
			return
		}
		f.cfg.Logf("repl: stream ended at seq %d: %v (reconnecting)", f.applied.Load(), err)
		f.reconnects.Add(1)
		if !f.sleep(f.cfg.ReconnectWait) {
			return
		}
	}
}

// sleep waits d or until Close, reporting whether to continue.
func (f *Follower) sleep(d time.Duration) bool {
	select {
	case <-f.stop:
		return false
	case <-time.After(d):
		return true
	}
}

// consume runs one connection: handshake, then the message loop. The
// returned error is a transport problem (redial); terminal problems are
// recorded via setFatal and also returned.
func (f *Follower) consume(conn net.Conn) error {
	var hs [len(handshakeMagic) + 8]byte
	copy(hs[:], handshakeMagic)
	binary.LittleEndian.PutUint64(hs[len(handshakeMagic):], f.applied.Load())
	conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Write(hs[:]); err != nil {
		return fmt.Errorf("handshake: %w", err)
	}

	var (
		snapBuf   []byte
		snapSize  uint64
		inSnap    bool
		in        msgReader
		mutations []registry.Mutation
		small     smallRun // small batches in a row, to let mutations go
	)
	for {
		f.scratch.Store(int64(cap(in.buf) + cap(mutations)*mutationBytes))
		typ, payload, err := in.read(conn, readTimeout)
		if err != nil {
			return err
		}
		switch typ {
		case msgSnapBegin:
			if len(payload) != snapBeginBody {
				return fmt.Errorf("repl: malformed snapshot begin")
			}
			if f.applied.Load() != 0 {
				return f.setFatal(fmt.Errorf("repl: primary sent a snapshot to a follower already at seq %d", f.applied.Load()))
			}
			snapSize = binary.LittleEndian.Uint64(payload[8:])
			if snapSize > maxSnapshotBytes {
				return f.setFatal(fmt.Errorf("repl: snapshot of %d bytes exceeds limit", snapSize))
			}
			// The declared size is the peer's word: it bounds the transfer,
			// and the buffer grows with the chunks that actually arrive.
			snapBuf = nil
			inSnap = true
		case msgSnapChunk:
			if !inSnap {
				return fmt.Errorf("repl: snapshot chunk outside transfer")
			}
			if uint64(len(snapBuf))+uint64(len(payload)) > snapSize {
				return fmt.Errorf("repl: snapshot overruns its declared size")
			}
			if have := len(snapBuf); len(payload) > cap(snapBuf)-have {
				// Double what has been received, up to what was declared.
				snapBuf = slices.Grow(snapBuf, min(max(have, len(payload)), int(snapSize)-have))
			}
			snapBuf = append(snapBuf, payload...)
		case msgSnapEnd:
			if !inSnap {
				return fmt.Errorf("repl: snapshot end outside transfer")
			}
			if uint64(len(snapBuf)) != snapSize {
				return fmt.Errorf("repl: snapshot short: %d of %d bytes", len(snapBuf), snapSize)
			}
			if err := f.installSnapshot(snapBuf); err != nil {
				return err
			}
			inSnap = false
			snapBuf = nil
			if err := f.ack(conn, f.applied.Load()); err != nil {
				return err
			}
		case msgFrames:
			if inSnap {
				return fmt.Errorf("repl: frames inside snapshot transfer")
			}
			if len(payload) < framesHeader {
				return fmt.Errorf("repl: malformed frame batch")
			}
			first := binary.LittleEndian.Uint64(payload[0:8])
			last := binary.LittleEndian.Uint64(payload[8:16])
			primarySeq := binary.LittleEndian.Uint64(payload[16:24])
			sentNanos := int64(binary.LittleEndian.Uint64(payload[24:32]))
			raw := payload[framesHeader:]
			mutations, err = f.applyBatch(raw, first, last, mutations)
			if err != nil {
				return err
			}
			if small.release(len(mutations)*mutationBytes, cap(mutations)*mutationBytes) {
				mutations = nil
			}
			f.primarySeq.Store(primarySeq)
			f.bumpPeakSeqLag()
			f.lag.Record(time.Duration(time.Now().UnixNano() - sentNanos))
			if err := f.ack(conn, last); err != nil {
				return err
			}
		case msgHeartbeat:
			if len(payload) != heartbeatBody {
				return fmt.Errorf("repl: malformed heartbeat")
			}
			f.primarySeq.Store(binary.LittleEndian.Uint64(payload[0:8]))
			f.bumpPeakSeqLag()
		case msgError:
			return f.setFatal(fmt.Errorf("repl: primary: %s", payload))
		default:
			return fmt.Errorf("repl: unknown message type %d", typ)
		}
	}
}

// mutationBytes is the size of one decoded record in a follower's scratch.
var mutationBytes = int(reflect.TypeFor[registry.Mutation]().Size())

// maxSnapshotBytes bounds a shipped snapshot (2 GiB — a full-population
// store snapshot is tens of MiB).
const maxSnapshotBytes = 2 << 30

// installSnapshot restores a complete shipped snapshot into the empty store
// and persists the raw image locally so restarts recover without re-fetch.
// The install is the same parallel sectioned decode recovery uses: a fresh
// replica's bootstrap time is bounded by this call, and time-to-first-serve
// is the whole point of a hot spare.
func (f *Follower) installSnapshot(raw []byte) error {
	seq, err := f.log.InstallSnapshot(raw)
	if err != nil {
		return f.setFatal(fmt.Errorf("repl: restore snapshot: %w", err))
	}
	f.applied.Store(seq)
	f.snapshots.Add(1)
	f.cfg.Logf("repl: installed snapshot at seq %d (%d bytes)", seq, len(raw))
	return nil
}

// applyBatch validates, persists and applies one shipped frame batch.
// Validation failures are transport errors (redial and re-request); local
// log or apply failures poison the replica and are terminal.
func (f *Follower) applyBatch(raw []byte, first, last uint64, scratch []registry.Mutation) ([]registry.Mutation, error) {
	if first != f.applied.Load()+1 || last < first {
		return scratch, fmt.Errorf("repl: batch %d..%d does not continue seq %d", first, last, f.applied.Load())
	}
	scratch, end, err := journal.DecodeFrames(scratch[:0], raw, first)
	if err != nil {
		return scratch, err
	}
	if end != last {
		return scratch, fmt.Errorf("repl: batch header claims %d..%d, frames end at %d", first, last, end)
	}
	if err := f.log.AppendFrames(raw, first, last); err != nil {
		return scratch, f.setFatal(err)
	}
	if err := f.log.Sync(); err != nil {
		return scratch, f.setFatal(err)
	}
	// Application records (the sim driver's checkpoints) are persisted
	// above like everything else — recovery and promotion see them — but
	// only registry mutations replay into the store, across the shards on
	// every core: a catch-up batch (512 KiB, some 7 k records) is the same
	// bytes local recovery replays that way, and nothing is served until it
	// is applied. A steady-state batch is one commit, which ApplyBatch
	// applies inline whatever the worker count.
	if err := f.store.ApplyBatch(scratch, par.Workers(0)); err != nil {
		return scratch, f.setFatal(err)
	}
	f.applied.Store(last)
	f.records.Add(last - first + 1)
	f.batches.Add(1)
	return scratch, nil
}

// ack reports the applied and locally durable position to the primary.
func (f *Follower) ack(conn net.Conn, seq uint64) error {
	var b [msgHeader + 8]byte
	binary.LittleEndian.PutUint64(b[msgHeader:], seq)
	return writeMsg(conn, 10*time.Second, msgAck, b[:])
}

func (f *Follower) bumpPeakSeqLag() {
	applied := f.applied.Load()
	primary := f.primarySeq.Load()
	if primary <= applied {
		return
	}
	lag := primary - applied
	for {
		cur := f.peakSeqLag.Load()
		if lag <= cur || f.peakSeqLag.CompareAndSwap(cur, lag) {
			return
		}
	}
}

// setFatal records err as terminal and returns it.
func (f *Follower) setFatal(err error) error {
	f.fatal.CompareAndSwap(nil, err)
	f.cfg.Logf("repl: fatal: %v", err)
	return err
}

// Err returns the error that permanently stopped replication, nil while
// the follower is healthy (including between reconnect attempts).
func (f *Follower) Err() error {
	if err, ok := f.fatal.Load().(error); ok {
		return err
	}
	return nil
}

// AppliedSeq returns the last sequence number applied to the store.
func (f *Follower) AppliedSeq() uint64 { return f.applied.Load() }

// Close stops replicating and closes the local journal. The store keeps
// serving reads at its last applied state.
func (f *Follower) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	started := f.started
	conn := f.conn
	f.mu.Unlock()
	close(f.stop)
	if conn != nil {
		conn.Close()
	}
	if started {
		<-f.done
	}
	return f.log.Close()
}

// Promote turns this replica into a writing primary: stop replicating,
// ensure everything applied is locally durable, re-open the journal
// directory as a writer positioned after the last applied record. Everything
// the old primary's semi-sync waiters acknowledged is — by the ack contract —
// at or below the applied position, so no acknowledged mutation is lost. The
// caller then attaches the returned journal to the store, lifts the serving
// plane's read-only gate (EPP SetReadOnly(false)) and owns the journal's
// snapshotting.
//
// o.Dir is ignored: the journal is the follower's own directory. Promote
// does not contact the old primary: fencing it off — not starting two
// writers — is the operator's (or the smoke harness's) job.
func (f *Follower) Promote(o journal.Options) (*journal.Journal, error) {
	if err := f.Close(); err != nil {
		return nil, err
	}
	if err := f.Err(); err != nil {
		return nil, fmt.Errorf("repl: promote a poisoned replica: %w", err)
	}
	o.Dir = f.cfg.Dir
	return journal.OpenExisting(f.store, o, f.applied.Load())
}

// FollowerMetrics is a point-in-time reading of the replica's counters,
// shaped for expvar publication and the shutdown summary.
type FollowerMetrics struct {
	AppliedSeq  uint64
	PrimarySeq  uint64
	SeqLag      uint64
	PeakSeqLag  uint64
	PeakTimeLag time.Duration
	Records     uint64
	Batches     uint64
	Snapshots   uint64
	Reconnects  uint64
	LogBytes    uint64
}

// Metrics returns current counters.
func (f *Follower) Metrics() FollowerMetrics {
	applied := f.applied.Load()
	primary := f.primarySeq.Load()
	m := FollowerMetrics{
		AppliedSeq:  applied,
		PrimarySeq:  primary,
		PeakSeqLag:  f.peakSeqLag.Load(),
		PeakTimeLag: f.lag.Percentile(100),
		Records:     f.records.Load(),
		Batches:     f.batches.Load(),
		Snapshots:   f.snapshots.Load(),
		Reconnects:  f.reconnects.Load(),
		LogBytes:    f.log.Metrics().WALBytes,
	}
	if primary > applied {
		m.SeqLag = primary - applied
	}
	return m
}

// LagResult is the per-batch time lag of the whole run as a loadgen.Result,
// so the storm report prints replication lag percentiles with the same
// machinery as request latencies. It is a live view of the histogram.
func (f *Follower) LagResult() loadgen.Result { return f.lag.Snapshot() }
