// Package journal gives registry.Store durable state: a segmented,
// CRC-checksummed write-ahead log fed by the store's mutation hook, plus
// periodic full-store snapshots so recovery replays a bounded tail instead
// of the whole history. The design goals, in order: recovery reproduces the
// pre-crash store exactly (the replay differential tests in
// internal/registry define "exactly"); a torn final write is tolerated
// while any other corruption fails loudly; and the Drop-second hot path
// pays one group-commit fsync per burst, not one per mutation.
package journal

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"dropzero/internal/par"
	"dropzero/internal/registry"
)

// Mode selects the durability contract.
type Mode int

const (
	// ModeOff disables the journal entirely: no WAL, no snapshots, no
	// recovery. The caller simply never opens one.
	ModeOff Mode = iota
	// ModeAsync acknowledges mutations before they are durable; a
	// background flusher group-commits every syncInterval or
	// defaultSyncEvery records. A crash loses at most the unflushed tail —
	// never a torn or reordered prefix.
	ModeAsync
	// ModeSync blocks each mutation until its record is fsynced. Group
	// commit still applies: concurrent mutators share one fsync.
	ModeSync
)

// String returns the flag spelling of m.
func (m Mode) String() string {
	switch m {
	case ModeOff:
		return "off"
	case ModeAsync:
		return "async"
	case ModeSync:
		return "sync"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ParseMode parses a -durability flag value.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "off":
		return ModeOff, nil
	case "async":
		return ModeAsync, nil
	case "sync":
		return ModeSync, nil
	}
	return ModeOff, fmt.Errorf("journal: unknown durability mode %q (want off, async or sync)", s)
}

// Options configures Open. The zero value of every field gets a sensible
// default except Dir, which is required.
type Options struct {
	// Dir is the data directory holding WAL segments and snapshots. It is
	// created if missing.
	Dir string
	// Mode is the durability contract; ModeOff is rejected by Open (a
	// caller wanting no journal should not open one).
	Mode Mode
	// KeepAll disables pruning of superseded snapshots and WAL segments.
	// Crash-recovery tests use it so a simulated crash (CrashCopy) can cut
	// the history at any sequence point, not only after the newest
	// snapshot.
	KeepAll bool
	// RecoveryParallelism bounds the worker count for snapshot restore,
	// WAL replay and snapshot encoding: ≤ 0 means GOMAXPROCS, 1 runs each of
	// them on the calling goroutine alone.
	RecoveryParallelism int

	// Test seams, zero meaning the default: small segments rotate often,
	// a small syncEvery group-commits often.
	segmentBytes int64
	syncEvery    int
}

const (
	// defaultSegmentBytes rotates WAL segments at 64 MiB.
	defaultSegmentBytes int64 = 64 << 20
	// defaultSyncEvery group-commits after this many unsynced records in
	// async mode.
	defaultSyncEvery = 256
	// syncInterval bounds how stale the durable prefix may be in async mode.
	syncInterval = 50 * time.Millisecond
)

func (o *Options) defaults() error {
	if o.Dir == "" {
		return fmt.Errorf("journal: Options.Dir is required")
	}
	if o.Mode == ModeOff {
		return fmt.Errorf("journal: Open with ModeOff: disable the journal by not opening one")
	}
	if o.syncEvery <= 0 {
		o.syncEvery = defaultSyncEvery
	}
	if o.segmentBytes <= 0 {
		o.segmentBytes = defaultSegmentBytes
	}
	return nil
}

// RecoveryTimings breaks down where recovery wall-clock went, for startup
// logging: restart time is the margin a registrar has before the next Drop,
// so it is reported, not guessed.
type RecoveryTimings struct {
	// SnapshotRead is the snapshot file read.
	SnapshotRead time.Duration
	// SnapshotDecode is verification: the framing+CRC validation pass.
	SnapshotDecode time.Duration
	// SnapshotInstall is decoding and installing the state into the store.
	SnapshotInstall time.Duration
	// Replay is the WAL tail replay.
	Replay time.Duration
	// Total is the whole recovery pass, including directory scans.
	Total time.Duration
}

// Recovery reports what Open reconstructed from the data directory.
type Recovery struct {
	// SnapshotSeq is the WAL sequence number of the loaded snapshot (0 when
	// recovery started from an empty log).
	SnapshotSeq uint64
	// SnapshotBytes is the loaded snapshot's file size (0 when none).
	SnapshotBytes int64
	// ReplayedRecords counts WAL records applied on top of the snapshot.
	ReplayedRecords int
	// AppState is the application checkpoint blob from the loaded snapshot,
	// nil when there was none.
	AppState []byte
	// AppRecords are the application records from the replayed WAL tail, in
	// log order.
	AppRecords [][]byte
	// TornBytes is how many bytes of torn final write were truncated away
	// (0 for a clean log).
	TornBytes int64
	// Timings is the recovery phase breakdown.
	Timings RecoveryTimings
}

// Fresh reports whether the data directory held no durable state at all —
// the caller should seed/build its initial world, which the journal will
// record.
func (r Recovery) Fresh() bool {
	return r.SnapshotSeq == 0 && r.ReplayedRecords == 0
}

// ReplayRPS returns the WAL replay throughput in records per second, 0
// when nothing was replayed.
func (r Recovery) ReplayRPS() float64 {
	if r.ReplayedRecords == 0 || r.Timings.Replay <= 0 {
		return 0
	}
	return float64(r.ReplayedRecords) / r.Timings.Replay.Seconds()
}

// Journal is an open write-ahead journal bound to one store. It implements
// registry.Journal; attach it with store.SetJournal after Open returns.
type Journal struct {
	store *registry.Store
	w     *wal
	mode  Mode

	// snapMu serialises snapshot writes (background snapshotter vs explicit
	// calls); it is never held while the store or WAL are locked.
	snapMu  sync.Mutex
	keepAll bool

	// retMu guards the replication retain floors: each streaming follower
	// connection registers the position it still needs, and segment pruning
	// after a snapshot never removes records above the lowest floor.
	retMu    sync.Mutex
	retained map[uint64]uint64
	retNext  uint64

	lastSnapUnix atomic.Int64 // 0 = no snapshot yet this process
	replayed     atomic.Uint64

	// workers bounds snapshot-encode parallelism (Options.RecoveryParallelism
	// resolved); recoverySecs/recoveryRPS freeze Open's recovery cost for
	// Metrics. All set before the journal is shared.
	workers      int
	recoverySecs float64
	recoveryRPS  float64
}

// Open recovers the durable state in o.Dir into store (which must be empty
// and not yet serving) and returns the journal ready for appends. Recovery
// loads the newest valid snapshot, replays the WAL tail through
// store.ApplyBatch (replay.go), truncates a torn final write, and positions
// the log so the next mutation continues the sequence.
func Open(store *registry.Store, o Options) (*Journal, Recovery, error) {
	var rec Recovery
	if err := o.defaults(); err != nil {
		return nil, rec, err
	}
	workers := par.Workers(o.RecoveryParallelism)
	rec, last, hadSnap, err := recoverDir(store, o.Dir, workers)
	if err != nil {
		return nil, rec, err
	}
	w, err := newWAL(o.Dir, last, o.syncEvery, syncInterval, o.segmentBytes, o.Mode == ModeAsync)
	if err != nil {
		return nil, rec, err
	}

	j := &Journal{store: store, w: w, mode: o.Mode, keepAll: o.KeepAll, workers: workers}
	j.replayed.Store(uint64(rec.ReplayedRecords))
	j.recoverySecs = rec.Timings.Total.Seconds()
	j.recoveryRPS = rec.ReplayRPS()
	if hadSnap {
		j.lastSnapUnix.Store(time.Now().Unix())
	}
	return j, rec, nil
}

// recoverDir rebuilds dir's durable state into store: restore the newest
// valid snapshot, replay the WAL tail, truncate a torn final write — the
// restore and replay spread over up to workers goroutines. It returns what
// was reconstructed plus the highest recovered sequence number, and does not
// open the log for writing — Open layers the writer on top, Replay stops
// here.
func recoverDir(store *registry.Store, dir string, workers int) (rec Recovery, last uint64, hadSnap bool, err error) {
	t0 := time.Now()
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return rec, 0, false, fmt.Errorf("journal: %w", err)
	}

	rec, hadSnap, err = restoreLatestSnapshot(store, dir, workers)
	if err != nil {
		return rec, 0, false, err
	}
	after := rec.SnapshotSeq

	if names, firstSeqs, lerr := listSegments(dir); lerr == nil && len(firstSeqs) > 0 && firstSeqs[0] > after+1 {
		return rec, 0, false, fmt.Errorf("journal: gap between snapshot (seq %d) and oldest segment %s", after, names[0])
	}
	tr := time.Now()
	res, err := replayTail(store, dir, after, workers)
	rec.ReplayedRecords = res.replayed
	rec.AppRecords = res.appRecords
	rec.Timings.Replay = time.Since(tr)
	if err != nil {
		return rec, 0, false, err
	}
	if res.scan.tornFile != "" {
		info, err := os.Stat(res.scan.tornFile)
		if err != nil {
			return rec, 0, false, fmt.Errorf("journal: %w", err)
		}
		rec.TornBytes = info.Size() - res.scan.tornAt
		if err := os.Truncate(res.scan.tornFile, res.scan.tornAt); err != nil {
			return rec, 0, false, fmt.Errorf("journal: truncate torn tail: %w", err)
		}
	}

	last = res.scan.lastSeq
	if after > last {
		// The snapshot is newer than the durable log tail (an async-mode
		// crash lost buffered records the snapshot already covered). The
		// snapshot is the state of record; the sequence continues from it.
		last = after
	}
	rec.Timings.Total = time.Since(t0)
	return rec, last, hadSnap, nil
}

// Replay rebuilds dir's durable state into store exactly as Open recovers
// it (snapshot, tail, torn-write truncation) without opening the log for
// writing, and returns the highest recovered sequence number. The store
// must be empty. Replay always recovers with a worker per core.
func Replay(store *registry.Store, dir string) (Recovery, uint64, error) {
	rec, last, _, err := recoverDir(store, dir, par.Workers(0))
	return rec, last, err
}

// OpenExisting opens dir's journal for writing with no recovery pass: the
// caller guarantees store already reflects every record ≤ lastSeq. This is
// the promotion path — a replica that finished applying its durable shipped
// log takes over the write role, and re-running recovery against its live,
// serving store (RestoreSnapshot demands an empty one) is neither possible
// nor needed. Appends continue at lastSeq+1 in a fresh segment.
func OpenExisting(store *registry.Store, o Options, lastSeq uint64) (*Journal, error) {
	if err := o.defaults(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.Dir, 0o777); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	w, err := newWAL(o.Dir, lastSeq, o.syncEvery, syncInterval, o.segmentBytes, o.Mode == ModeAsync)
	if err != nil {
		return nil, err
	}
	return &Journal{store: store, w: w, mode: o.Mode, keepAll: o.KeepAll, workers: par.Workers(o.RecoveryParallelism)}, nil
}

// Append implements registry.Journal: it frames the mutation into the WAL
// buffer and, in sync mode, returns the group-commit waiter the store runs
// after releasing its locks. Async mode returns nil — durability follows
// within syncInterval.
func (j *Journal) Append(m registry.Mutation) func() error {
	_, wait := j.AppendMutation(m)
	return wait
}

// AppendMutation is Append exposed with the assigned sequence number, for
// callers that need to correlate a mutation with its WAL position — the
// semi-sync replication wrapper waits for follower acknowledgement of
// exactly this sequence. The wait function follows Append's contract: nil
// in async mode, group-commit waiter in sync mode.
func (j *Journal) AppendMutation(m registry.Mutation) (uint64, func() error) {
	// Domain records fit the scratch, which stays on the stack: the WAL
	// copies the body into its buffer and keeps nothing.
	var scratch [256]byte
	body, err := appendMutation(scratch[:0], &m)
	if err != nil {
		return 0, func() error { return err }
	}
	return j.appended(j.w.append(recMutation, body))
}

// appended turns wal.append's result into Append's contract: nil in async
// mode — a failed log shows through Err, not through its appenders — and in
// sync mode the group-commit wait for seq, or the append's own failure.
func (j *Journal) appended(seq uint64, err error) (uint64, func() error) {
	switch {
	case j.mode != ModeSync:
		return seq, nil
	case err != nil:
		return 0, func() error { return err }
	}
	return seq, func() error { return j.w.waitDurable(seq) }
}

// AppendApp journals an opaque application record (the simulation driver's
// per-day checkpoint deltas). Same durability contract as Append; the
// returned waiter is non-nil only in sync mode.
func (j *Journal) AppendApp(body []byte) func() error {
	_, wait := j.appended(j.w.append(recApp, body))
	return wait
}

// AppendFrames lands one batch a follower received from its primary: raw
// holds records first..last framed as the primary's WAL holds them, already
// checked by DecodeFrames, and they must continue LastSeq exactly — a gap
// or an overlap is refused and leaves the log as it was. The bytes go to the
// group-commit buffer unchanged, so a follower's segments hold its
// primary's frames byte for byte; Sync makes them durable.
func (j *Journal) AppendFrames(raw []byte, first, last uint64) error {
	return j.w.appendFrames(raw, first, last)
}

// Sync forces a group commit of everything appended so far and blocks until
// it is durable.
func (j *Journal) Sync() error {
	return j.w.waitDurable(j.w.lastSeq())
}

// LastSeq returns the sequence number of the most recently appended record
// (durable or not).
func (j *Journal) LastSeq() uint64 { return j.w.lastSeq() }

// DurableSeq returns the highest sequence number known fsynced. Replication
// ships only records ≤ this horizon, so a follower can never hold a record
// the primary would lose in a crash.
func (j *Journal) DurableSeq() uint64 { return j.w.durableSeq() }

// WatchDurable registers for durable-horizon advances: the returned channel
// receives a (coalesced) notification after every group commit, and cancel
// unregisters it. This is how a replication source tails the live log
// without polling — it wakes exactly when new durable bytes exist.
func (j *Journal) WatchDurable() (<-chan struct{}, func()) { return j.w.watchDurable() }

// Dir returns the journal's data directory, the one TailReader reads
// segment files from.
func (j *Journal) Dir() string { return j.w.dir }

// Retain pins records with sequence numbers greater than seq against
// segment pruning until the returned release is called. A replication
// source holds a floor per streaming follower so a snapshot landing
// mid-stream cannot delete segments the follower is still reading.
// Snapshot files themselves are not pinned — only segments.
func (j *Journal) Retain(seq uint64) (release func()) {
	j.retMu.Lock()
	if j.retained == nil {
		j.retained = make(map[uint64]uint64)
	}
	id := j.retNext
	j.retNext++
	j.retained[id] = seq
	j.retMu.Unlock()
	return func() {
		j.retMu.Lock()
		delete(j.retained, id)
		j.retMu.Unlock()
	}
}

// retainFloor returns the lowest registered retain position, or ^0 when no
// follower holds one.
func (j *Journal) retainFloor() uint64 {
	j.retMu.Lock()
	defer j.retMu.Unlock()
	floor := ^uint64(0)
	for _, seq := range j.retained {
		if seq < floor {
			floor = seq
		}
	}
	return floor
}

// Err returns the WAL's sticky IO failure, or nil while the log is healthy.
// Async mode acknowledges mutations before they are durable, so once the
// WAL trips (disk full, IO error) Append keeps succeeding with no
// durability behind it — long-running callers must poll Err (the
// snapshotter loops in dropserve and sim do) instead of waiting for Close
// to surface the failure.
func (j *Journal) Err() error { return j.w.stickyErr() }

// Snapshot writes a consistent full-store snapshot tagged with the WAL
// position it covers, then prunes snapshots and segments it supersedes.
// appState is the application's own checkpoint blob, stored alongside.
//
// Capture and encode are one pass (snapImage.encode) under the store's
// read locks (registry.Store.ReadSnapshot): a snapshot costs its own
// encoded size in memory and no copy of the store. Mutators wait for one
// encode, as do readers queued behind one. Every mutator appends its record
// inside its critical section, so the WAL position read under the locks is
// exactly the image's last record. The file is written after the locks are
// released.
func (j *Journal) Snapshot(appState []byte) error {
	j.snapMu.Lock()
	defer j.snapMu.Unlock()

	var img snapImage
	j.store.ReadSnapshot(func(r *registry.SnapshotReader) { img.encode(r, j.w.lastSeq(), appState, j.workers) })
	if _, err := img.write(j.w.dir); err != nil {
		return err
	}
	if !j.keepAll {
		segSeq := img.seq
		if floor := j.retainFloor(); floor < segSeq {
			segSeq = floor
		}
		if err := pruneAfterSnapshot(j.w.dir, img.seq, segSeq); err != nil {
			return fmt.Errorf("journal: prune: %w", err)
		}
	}
	j.lastSnapUnix.Store(time.Now().Unix())
	return nil
}

// Metrics is a point-in-time reading of the journal's counters, shaped for
// expvar publication.
type Metrics struct {
	// WALBytes is the total frame bytes written to segments.
	WALBytes uint64
	// WALFsyncs counts group commits (each one fsync).
	WALFsyncs uint64
	// SnapshotAgeSeconds is the age of the newest snapshot this process
	// wrote or loaded; -1 before the first one.
	SnapshotAgeSeconds float64
	// RecoveryReplayedRecords is how many WAL records Open replayed.
	RecoveryReplayedRecords uint64
	// RecoverySeconds is how long Open's recovery pass took (0 for a journal
	// opened without one — OpenExisting).
	RecoverySeconds float64
	// RecoveryReplayRPS is the WAL replay throughput of that pass in
	// records per second.
	RecoveryReplayRPS float64
}

// Metrics returns the current counter values.
func (j *Journal) Metrics() Metrics {
	m := Metrics{
		WALBytes:                j.w.bytes.Load(),
		WALFsyncs:               j.w.fsyncs.Load(),
		SnapshotAgeSeconds:      -1,
		RecoveryReplayedRecords: j.replayed.Load(),
		RecoverySeconds:         j.recoverySecs,
		RecoveryReplayRPS:       j.recoveryRPS,
	}
	if ts := j.lastSnapUnix.Load(); ts != 0 {
		m.SnapshotAgeSeconds = time.Since(time.Unix(ts, 0)).Seconds()
	}
	return m
}

// Close flushes and fsyncs every buffered record and closes the log. The
// journal must be detached from the store (or the store quiesced) first.
func (j *Journal) Close() error { return j.w.close() }
