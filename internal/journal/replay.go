package journal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"dropzero/internal/par"
	"dropzero/internal/registry"
)

// WAL replay is one loop over fixed windows of records: frame and CRC-check
// the segments (scanFrames — a strict scan, sequence numbers must chain),
// decode a window's mutation bodies (embarrassingly parallel, par.Do over
// chunks, into one reused []Mutation), apply the window through
// registry.Store.ApplyBatch (parallel exactly up to the store's shard
// partition). With more than one worker the framing runs on a reader
// goroutine one window ahead of the decode and apply; with one worker it is
// the same loop on the calling goroutine and nothing else.
//
// Why the result equals record-at-a-time Store.Apply at every worker count
// is ApplyBatch's contract (registry/journal.go): same-name records share a
// shard and so a group, in order; the generation advances by the group size
// under the shard lock; the ID allocator takes an atomic max; purge events
// join the deletion archive in batch-position order; registrar and zone
// records are barriers. Windows are applied strictly one after another, so
// what holds inside a batch holds across the log.
//
// Errors anywhere poison the store (some records applied, some not); Open
// discards the store on error, so partial application is unobservable.

// frameScan is what walking the on-disk log yields besides the frames: the
// highest good sequence number and — when the final segment ends in a torn
// write — the file and offset recovery must truncate at before the log is
// appended to again.
type frameScan struct {
	lastSeq  uint64
	tornFile string
	tornAt   int64
}

// scanFrames walks every segment in dir in order, invoking emit for each
// frame with sequence number strictly greater than after; a frame's body
// aliases its segment's read buffer, a fresh allocation per segment that
// lives as long as any frame references it. Corruption in any segment but
// the last is fatal (those were fsynced before their successors existed),
// while a malformed frame in the last segment is the torn tail of an
// interrupted write — scanning stops at the last whole record and the torn
// offset is reported for truncation. A gap between segments is tolerable
// only when every missing record is ≤ after, i.e. covered by the snapshot
// recovery already loaded (the legitimate async-crash artefact); any gap
// reaching past the snapshot is data loss and stays fatal. An emit error
// aborts the scan.
func scanFrames(dir string, after uint64, emit func(frame) error) (frameScan, error) {
	var fs frameScan
	names, firstSeqs, err := listSegments(dir)
	if err != nil {
		return fs, fmt.Errorf("journal: list segments: %w", err)
	}
	fs.lastSeq = after
	expect := uint64(0) // next expected seq; 0 = not yet anchored
	for i, name := range names {
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			return fs, fmt.Errorf("journal: read segment: %w", err)
		}
		if expect == 0 {
			expect = firstSeqs[i]
		} else if firstSeqs[i] != expect {
			if firstSeqs[i] > expect && firstSeqs[i] <= after+1 {
				expect = firstSeqs[i]
			} else {
				return fs, fmt.Errorf("journal: segment %s starts at seq %d, want %d: missing segment", name, firstSeqs[i], expect)
			}
		}
		for off := 0; off < len(data); {
			f, size, err := nextFrame(data[off:])
			if err != nil {
				if i == len(names)-1 {
					fs.tornFile, fs.tornAt = path, int64(off)
					break
				}
				return fs, fmt.Errorf("journal: segment %s offset %d: %w", name, off, err)
			}
			if f.seq != expect {
				return fs, fmt.Errorf("journal: segment %s offset %d: seq %d, want %d: records out of order", name, off, f.seq, expect)
			}
			expect++
			off += size
			if f.seq > after {
				if err := emit(f); err != nil {
					return fs, err
				}
			}
			fs.lastSeq = f.seq
		}
	}
	return fs, nil
}

// decodeRecord is the one frame→record decoder; replay, Scan and the
// follower's batch decoder all read a frame's type here. A mutation frame
// decodes into *m and returns a nil app; an application frame leaves *m
// alone and returns a copy of its body (the frame's aliases a read buffer),
// never nil.
func decodeRecord(f frame, m *registry.Mutation) (app []byte, err error) {
	switch f.typ {
	case recMutation:
		if err := decodeMutation(f.body, m); err != nil {
			return nil, fmt.Errorf("journal: seq %d: %w", f.seq, err)
		}
		return nil, nil
	case recApp:
		return append([]byte{}, f.body...), nil
	}
	return nil, fmt.Errorf("journal: seq %d: unknown record type %d", f.seq, f.typ)
}

const (
	// replayWindow is how many records one step of replay decodes and hands
	// to ApplyBatch. Measured on a 210 k-record tail at 2 workers: 4 096
	// replays in 156–169 ms, 1 024 in 181–221 ms (the per-window fan-out and
	// one lock round per shard are paid four times as often); larger only
	// grows the reused decode buffer, 480 B a record.
	replayWindow = 4096
	// decodeChunk is the unit of parallel decode inside a window.
	decodeChunk = 256
)

// replayResult is what replaying the WAL tail into the store yields.
type replayResult struct {
	appRecords [][]byte
	replayed   int
	scan       frameScan
}

// replayTail replays every record after `after` into the store, decoding and
// applying on up to workers goroutines.
func replayTail(store *registry.Store, dir string, after uint64, workers int) (replayResult, error) {
	var (
		res  replayResult
		muts = make([]registry.Mutation, replayWindow)
	)
	// apply decodes one window into muts — each chunk into its own stretch,
	// then closed up over the slots application records left — and applies it.
	apply := func(w []frame) error {
		type chunk struct {
			n    int
			apps [][]byte
			err  error
		}
		chunks := par.Do(workers, (len(w)+decodeChunk-1)/decodeChunk, func(c int) (out chunk) {
			lo := c * decodeChunk
			for _, f := range w[lo:min(lo+decodeChunk, len(w))] {
				app, err := decodeRecord(f, &muts[lo+out.n])
				switch {
				case err != nil:
					out.err = err
					return out
				case app != nil:
					out.apps = append(out.apps, app)
				default:
					out.n++
				}
			}
			return out
		})
		n := 0
		for c, ch := range chunks {
			if ch.err != nil {
				return ch.err
			}
			if lo := c * decodeChunk; n != lo {
				copy(muts[n:], muts[lo:lo+ch.n])
			}
			n += ch.n
			res.appRecords = append(res.appRecords, ch.apps...)
		}
		if err := store.ApplyBatch(muts[:n], workers); err != nil {
			return fmt.Errorf("journal: replay: %w", err)
		}
		res.replayed += len(w)
		return nil
	}
	// cut walks the log and hands emit each full window, then the remainder.
	cut := func(emit func([]frame) error) error {
		w := make([]frame, 0, replayWindow)
		var err error
		res.scan, err = scanFrames(dir, after, func(f frame) error {
			if w = append(w, f); len(w) < replayWindow {
				return nil
			}
			full := w
			w = make([]frame, 0, replayWindow)
			return emit(full)
		})
		if err == nil && len(w) > 0 {
			err = emit(w)
		}
		return err
	}
	if workers <= 1 {
		err := cut(apply)
		return res, err
	}

	var (
		windows = make(chan []frame, 1)
		stop    = make(chan struct{})
		stopped = errors.New("journal: replay stopped")
		cutErr  error
	)
	go func() {
		defer close(windows)
		cutErr = cut(func(w []frame) error {
			select {
			case windows <- w:
				return nil
			case <-stop:
				return stopped
			}
		})
	}()
	// Receive until the reader closes the channel, also after a failure: its
	// exit is what makes res.scan and cutErr safe to read.
	var err error
	for w := range windows {
		if err == nil {
			if err = apply(w); err != nil {
				close(stop)
			}
		}
	}
	if err == nil {
		err = cutErr
	}
	return res, err
}
