package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// On-disk frame layout, little-endian:
//
//	u32 payload length · u32 CRC-32 (IEEE) of payload · payload
//	payload: u64 sequence number · u8 record type · body
//
// Sequence numbers start at 1 and are strictly consecutive across the whole
// log, segment boundaries included. Segments are files named
// wal-<firstseq>.log where <firstseq> is the sequence number of the first
// record the segment may contain; rotation fsyncs the outgoing segment
// before the first write to its successor, so on any crash the durable
// records form a contiguous prefix — a torn or missing tail is only ever
// possible in the newest segment.
const (
	frameHeader   = 8 // length + CRC
	payloadHeader = 9 // seq + record type
	// maxRecordBytes bounds a single record; anything larger in a length
	// field is corruption, not data.
	maxRecordBytes = 64 << 20

	// maxSpareBytes bounds the group-commit buffer a flush keeps for reuse:
	// the two buffers trade places flush after flush, and one burst behind a
	// slow fsync must not pin its size for the life of the log.
	maxSpareBytes = 1 << 20

	recMutation byte = 1 // registry.Mutation payload
	recApp      byte = 2 // opaque application payload (simulation driver state)
)

// errFrameShort is nextFrame's error for data that ends inside a frame,
// returned bare. It is one value — TailReader meets it once per block it
// reads.
var errFrameShort = errors.New("frame cut short")

// frame is one record cut out of a run of WAL bytes; body aliases them.
type frame struct {
	seq  uint64
	typ  byte
	body []byte
}

// nextFrame cuts the frame at the head of data and returns it with its
// framed size: the header must be whole, the length inside [payloadHeader,
// maxRecordBytes] and inside data, the CRC must match. Every reader of WAL
// bytes — from a file or from a socket — frames through here and nowhere
// else; what a bad frame means is the caller's policy: the torn tail of the
// last segment or fatal corruption (scanFrames), a transport error
// (DecodeFrames), the place to cut (frameBoundary), time to read the
// segment's next block (TailReader — data that ends inside an otherwise
// plausible frame is reported as errFrameShort). Sequence numbers are not
// judged here: each caller chains them against its own expectation.
func nextFrame(data []byte) (f frame, size int, err error) {
	if len(data) < frameHeader {
		return f, 0, errFrameShort
	}
	ln := int64(binary.LittleEndian.Uint32(data))
	if ln < payloadHeader || ln > maxRecordBytes {
		return f, 0, fmt.Errorf("bad record length %d", ln)
	}
	if int64(len(data)-frameHeader) < ln {
		return f, 0, errFrameShort
	}
	payload := data[frameHeader : frameHeader+int(ln)]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[4:]) {
		return f, 0, errors.New("CRC mismatch")
	}
	return frame{
		seq:  binary.LittleEndian.Uint64(payload),
		typ:  payload[8],
		body: payload[payloadHeader:],
	}, frameHeader + int(ln), nil
}

// wal is the segmented append log with group-commit fsync.
//
// Writers append encoded frames to an in-memory buffer under mu and either
// return immediately (async mode — a background flusher syncs on a timer or
// after syncEvery records) or wait for durability (sync mode). In both
// cases one leader performs the write+fsync for every record buffered at
// the moment it starts, so a burst of N concurrent appends costs one fsync,
// not N — the group commit the Drop-second hot path needs.
type wal struct {
	dir          string
	syncEvery    int
	syncInterval time.Duration
	segmentBytes int64

	mu      sync.Mutex
	cond    *sync.Cond // broadcast when durable advances, err is set, or the leader steps down
	f       *os.File   // current segment
	size    int64      // bytes already written to f
	buf     []byte     // encoded frames not yet written
	spare   []byte     // the buffer the last flush wrote out, empty: the next flush hands it to appenders
	seq     uint64     // last assigned sequence number
	durable uint64     // last sequence number known fsynced
	syncing bool       // a leader is mid write+fsync
	err     error      // sticky: first IO failure poisons the log
	closed  bool

	flushReq  chan struct{} // nudges the async flusher before its timer
	stop      chan struct{}
	flusherWG sync.WaitGroup

	// watchers are replication sources waiting for the durable horizon to
	// advance. Each gets a buffered channel poked (non-blocking, coalescing)
	// after every group commit and at close, so a tailing source wakes per
	// commit burst instead of polling.
	watchers map[uint64]chan struct{}
	watchID  uint64

	bytes  atomic.Uint64 // total frame bytes handed to the OS
	fsyncs atomic.Uint64

	// testHookMidFlush, when set, runs during flushLocked's unlocked IO
	// window. Tests use it to interleave appends with a flush
	// deterministically; nil in production.
	testHookMidFlush func()
}

// The journal's files are named <prefix><20-digit sequence><suffix>:
// wal-<firstseq>.log is the segment whose first record may be firstseq,
// snap-<seq>.snap the snapshot that covers every record ≤ seq.
func segName(seq uint64) string  { return fmt.Sprintf("wal-%020d.log", seq) }
func snapName(seq uint64) string { return fmt.Sprintf("snap-%020d.snap", seq) }

func listSegments(dir string) ([]string, []uint64, error) { return listNumbered(dir, "wal-", ".log") }
func listSnapshots(dir string) ([]string, []uint64, error) {
	return listNumbered(dir, "snap-", ".snap")
}

// listNumbered returns dir's files named prefix<sequence>suffix with their
// sequence numbers, in ascending sequence order.
func listNumbered(dir, prefix, suffix string) (names []string, seqs []uint64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	type file struct {
		name string
		seq  uint64
	}
	var files []file
	for _, e := range entries {
		digits, hasPrefix := strings.CutPrefix(e.Name(), prefix)
		digits, hasSuffix := strings.CutSuffix(digits, suffix)
		if seq, err := strconv.ParseUint(digits, 10, 64); hasPrefix && hasSuffix && err == nil {
			files = append(files, file{e.Name(), seq})
		}
	}
	sort.Slice(files, func(i, j int) bool { return files[i].seq < files[j].seq })
	for _, f := range files {
		names = append(names, f.name)
		seqs = append(seqs, f.seq)
	}
	return names, seqs, nil
}

// syncDir fsyncs the directory so segment creates/renames/removals survive
// a crash of their own.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// newWAL opens a fresh segment for appending, with lastSeq the highest
// sequence number already durable in dir (0 for an empty log). Recovery has
// already run: the new segment starts at lastSeq+1 and any torn tail in the
// previous segment has been truncated away.
func newWAL(dir string, lastSeq uint64, syncEvery int, syncInterval time.Duration, segmentBytes int64, background bool) (*wal, error) {
	w := &wal{
		dir:          dir,
		syncEvery:    syncEvery,
		syncInterval: syncInterval,
		segmentBytes: segmentBytes,
		seq:          lastSeq,
		durable:      lastSeq,
		flushReq:     make(chan struct{}, 1),
		stop:         make(chan struct{}),
	}
	w.cond = sync.NewCond(&w.mu)
	if err := w.openSegmentLocked(); err != nil {
		return nil, err
	}
	if background {
		w.flusherWG.Add(1)
		go w.flusher()
	}
	return w, nil
}

// openSegmentLocked makes the segment that will hold record durable+1
// current: created (or truncated), its name made durable, the segment it
// succeeds closed. Caller holds mu or has exclusive access.
//
// The name must come from durable, not seq: at rotation time every record
// ≤ durable was just fsynced into the outgoing segment, but appenders may
// have buffered records durable+1..seq during the unlocked flush IO, and
// those land in the *new* segment — so its first record is durable+1.
// Naming it seq+1 would claim a later first sequence than it holds and
// fail scanFrames's contiguity check on the next recovery. (At newWAL time
// durable == seq, so the fresh-open case is unaffected.)
func (w *wal) openSegmentLocked() error {
	f, err := os.Create(filepath.Join(w.dir, segName(w.durable+1)))
	if err != nil {
		return fmt.Errorf("journal: create segment: %w", err)
	}
	if err := syncDir(w.dir); err != nil {
		f.Close()
		return fmt.Errorf("journal: sync dir: %w", err)
	}
	if w.f != nil {
		w.f.Close()
	}
	w.f, w.size = f, 0
	return nil
}

// refusalLocked is the error an append meets: the log's sticky failure, or
// that it is closed; nil while the log takes appends. Caller holds mu.
func (w *wal) refusalLocked() error {
	if w.err == nil && w.closed {
		return errors.New("journal: append after close")
	}
	return w.err
}

// append frames one record — header and body written once, in place, at the
// tail of the group-commit buffer — and returns its sequence number; body is
// not retained. Durability is waitDurable's business: sync-mode callers wait
// on the returned number, async-mode callers are done. The error is the
// log's sticky failure, or that it is closed.
func (w *wal) append(typ byte, body []byte) (uint64, error) {
	w.mu.Lock()
	if err := w.refusalLocked(); err != nil {
		w.mu.Unlock()
		return 0, err
	}
	w.seq++
	seq := w.seq
	var hdr [frameHeader + payloadHeader]byte
	binary.LittleEndian.PutUint64(hdr[frameHeader:], seq)
	hdr[frameHeader+8] = typ
	start := len(w.buf)
	w.buf = append(append(w.buf, hdr[:]...), body...)
	payload := w.buf[start+frameHeader:]
	binary.LittleEndian.PutUint32(w.buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(w.buf[start+4:], crc32.ChecksumIEEE(payload))
	nudge := w.syncEvery > 0 && seq-w.durable >= uint64(w.syncEvery)
	w.mu.Unlock()

	if nudge {
		select {
		case w.flushReq <- struct{}{}:
		default:
		}
	}
	return seq, nil
}

// appendFrames copies records first..last, already framed, to the tail of
// the group-commit buffer; they must continue the log exactly. The frames
// are not judged here: their reader already cut and checked them.
func (w *wal) appendFrames(raw []byte, first, last uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.refusalLocked(); err != nil {
		return err
	}
	if first != w.seq+1 || last < first {
		return fmt.Errorf("journal: log at seq %d given records %d..%d", w.seq, first, last)
	}
	w.buf = append(w.buf, raw...)
	w.seq = last
	return nil
}

// restartAfter restarts a log that holds no record after seq: its one
// segment, empty, is removed and the next starts at seq+1. A failure
// poisons the log.
func (w *wal) restartAfter(seq uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.refusalLocked(); err != nil {
		return err
	}
	if w.seq != 0 {
		return fmt.Errorf("journal: restart after seq %d a log at seq %d", seq, w.seq)
	}
	old := w.f.Name()
	w.f.Close()
	w.f, w.seq, w.durable = nil, seq, seq
	if err := os.Remove(old); err != nil {
		w.err = fmt.Errorf("journal: restart log: %w", err)
		return w.err
	}
	if err := w.openSegmentLocked(); err != nil {
		w.err = err
	}
	return w.err
}

// waitDurable blocks until seq is fsynced, electing the caller as the
// group-commit leader when no flush is in flight: the leader writes and
// fsyncs every record buffered so far, then wakes all waiters. Followers
// whose records were covered return without touching the disk.
func (w *wal) waitDurable(seq uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.err == nil && w.durable < seq {
		if w.syncing {
			w.cond.Wait()
			continue
		}
		w.flushLocked()
	}
	if w.err != nil && w.durable < seq {
		return w.err
	}
	return nil
}

// flushLocked performs one group commit: write the pending buffer, fsync,
// advance durable to the highest buffered sequence number, and rotate the
// segment when it is full. Called with mu held; the IO runs unlocked so
// appenders are never blocked behind an fsync — they fill the buffer the
// previous flush wrote out, and this one's becomes the spare in turn.
func (w *wal) flushLocked() {
	w.syncing = true
	buf := w.buf
	w.buf, w.spare = w.spare, nil
	target := w.seq
	f := w.f
	w.mu.Unlock()

	var werr error
	if len(buf) > 0 {
		_, werr = f.Write(buf)
	}
	if werr == nil {
		werr = f.Sync()
	}
	if hook := w.testHookMidFlush; hook != nil {
		hook()
	}

	w.mu.Lock()
	if cap(buf) <= maxSpareBytes {
		w.spare = buf[:0]
	}
	w.fsyncs.Add(1)
	if werr != nil {
		w.err = fmt.Errorf("journal: wal flush: %w", werr)
	} else {
		w.bytes.Add(uint64(len(buf)))
		w.size += int64(len(buf))
		if target > w.durable {
			w.durable = target
		}
		if w.size >= w.segmentBytes {
			// The outgoing segment is fully synced, so its successor can
			// never hold durable records the predecessor is missing.
			if err := w.openSegmentLocked(); err != nil {
				w.err = err
			}
		}
	}
	w.syncing = false
	w.cond.Broadcast()
	w.notifyWatchersLocked()
}

// notifyWatchersLocked pokes every registered durable watcher without
// blocking; a full buffer means a wake-up is already pending. Caller holds
// mu.
func (w *wal) notifyWatchersLocked() {
	for _, ch := range w.watchers {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// durableSeq returns the highest fsynced sequence number.
func (w *wal) durableSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.durable
}

// watchDurable registers a durable-advance watcher; cancel unregisters it.
// The channel is also poked at close so watchers re-check state and notice
// the log is gone.
func (w *wal) watchDurable() (<-chan struct{}, func()) {
	ch := make(chan struct{}, 1)
	w.mu.Lock()
	if w.watchers == nil {
		w.watchers = make(map[uint64]chan struct{})
	}
	id := w.watchID
	w.watchID++
	w.watchers[id] = ch
	w.mu.Unlock()
	return ch, func() {
		w.mu.Lock()
		delete(w.watchers, id)
		w.mu.Unlock()
	}
}

// flusher is the async-mode background goroutine: group commit on a timer,
// or sooner when appenders cross the syncEvery threshold.
func (w *wal) flusher() {
	defer w.flusherWG.Done()
	t := time.NewTicker(w.syncInterval)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
		case <-w.flushReq:
		}
		w.mu.Lock()
		for w.err == nil && w.durable < w.seq {
			if w.syncing {
				w.cond.Wait()
				continue
			}
			w.flushLocked()
		}
		w.mu.Unlock()
	}
}

// lastSeq returns the highest assigned sequence number.
func (w *wal) lastSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// stickyErr returns the first IO failure that poisoned the log, or nil
// while the log is healthy.
func (w *wal) stickyErr() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// close stops the flusher, performs a final group commit and closes the
// current segment. The returned error reports any record that could not be
// made durable.
func (w *wal) close() error {
	w.mu.Lock()
	if w.closed {
		err := w.err
		w.mu.Unlock()
		return err
	}
	w.closed = true
	w.mu.Unlock()
	close(w.stop)
	w.flusherWG.Wait()

	w.mu.Lock()
	for w.err == nil && w.durable < w.seq {
		if w.syncing {
			w.cond.Wait()
			continue
		}
		w.flushLocked()
	}
	err := w.err
	if w.f != nil {
		if cerr := w.f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("journal: close segment: %w", cerr)
		}
		w.f = nil
	}
	w.notifyWatchersLocked()
	w.mu.Unlock()
	return err
}
