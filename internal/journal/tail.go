package journal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"dropzero/internal/registry"
)

// This file is the journal's replication surface: reading the log as raw
// bytes instead of replaying it. A primary ships its segment files to
// followers frame-for-frame (TailReader), a follower validates and decodes
// what arrived (DecodeFrames) and lands it in its own journal unchanged
// (AppendFrames, InstallSnapshot), and — on promotion — takes over the write
// role at a known position (OpenExisting).

// TailReader iterates a journal directory's WAL segments as raw frames,
// starting after a given sequence number and bounded by the durable horizon
// the caller observes via Journal.DurableSeq. It reads the same segment
// files the writer appends to, so the bytes it emits are exactly the bytes
// on the primary's disk — no re-encoding, and a follower that persists them
// has a byte-identical log.
//
// A TailReader is single-goroutine; the writer it tails runs concurrently.
// Reading only up to the durable horizon makes that safe: every record ≤
// durable was fully written and fsynced before durable advanced, and
// rotation fsyncs the outgoing segment before its successor sees a write.
// The open segment is read a block at a time, and a block may end with
// bytes the writer had only begun to write; those are never framed — Next
// stops at the horizon and forgets what it read beyond it.
type TailReader struct {
	dir   string
	next  uint64 // next sequence number to emit
	f     *os.File
	at    uint64 // seq of the frame at the head of buf; ≤ next
	off   int64  // offset of buf[0] in f
	buf   []byte // read and not yet framed; a window of block
	block []byte
}

// tailBlock is how much of a segment one read asks for: some six hundred
// registry records.
const tailBlock = 64 << 10

// NewTailReader returns a reader that emits records with sequence numbers
// strictly greater than afterSeq from dir's segments.
func NewTailReader(dir string, afterSeq uint64) *TailReader {
	return &TailReader{dir: dir, next: afterSeq + 1}
}

// Close releases the currently open segment file.
func (r *TailReader) Close() error {
	if r.f != nil {
		err := r.f.Close()
		r.f = nil
		return err
	}
	return nil
}

// Next appends whole raw frames for records next..min(durable, budget) to
// dst and returns the extended slice plus the first and last sequence
// numbers emitted (both zero when no record ≤ durable is pending). It stops
// early once at least maxBytes of frames have been appended, so one call
// never produces an unbounded message. Frames are cut and CRC-verified by
// nextFrame before being emitted: serving a corrupt byte to a follower is a
// primary-side error, not something to leave for the far end to discover.
func (r *TailReader) Next(dst []byte, durable uint64, maxBytes int) (out []byte, first, last uint64, err error) {
	out = dst
	base := len(dst)
	r.buf = r.buf[:0] // read before this call's horizon was known
	for r.next <= durable && len(out)-base < maxBytes {
		if r.f == nil {
			if err := r.openSegment(r.next); err != nil {
				return out, first, last, err
			}
		}
		f, size, ferr := nextFrame(r.buf)
		if ferr == errFrameShort {
			n, rerr := r.fill()
			switch {
			case rerr != nil:
				return out, first, last, fmt.Errorf("journal: tail read: %w", rerr)
			case n > 0:
			case len(r.buf) == 0:
				// Clean end of this segment: the record lives in the
				// successor the writer rotated to.
				if err := r.openSegment(r.at); err != nil {
					return out, first, last, err
				}
			default:
				return out, first, last, fmt.Errorf("journal: tail seq %d: segment ends inside the durable horizon %d: %w", r.at, durable, ferr)
			}
			continue
		}
		if ferr != nil {
			return out, first, last, fmt.Errorf("journal: tail seq %d: %w", r.at, ferr)
		}
		if f.seq != r.at {
			return out, first, last, fmt.Errorf("journal: tail: seq %d where %d expected", f.seq, r.at)
		}
		if r.at == r.next { // else a record before the start position: verified and skipped
			out = append(out, r.buf[:size]...)
			if first == 0 {
				first = f.seq
			}
			last = f.seq
			r.next++
		}
		r.at++
		r.buf = r.buf[size:]
		r.off += int64(size)
	}
	return out, first, last, nil
}

// fill reads the open segment's next block in behind the bytes still
// buffered and returns how many arrived — zero at the end of the file. While
// one frame outgrows the block the request doubles with it.
func (r *TailReader) fill() (int, error) {
	have := len(r.buf)
	if need := have + max(tailBlock, have); cap(r.block) < need {
		r.block = append(make([]byte, 0, need), r.buf...)
	} else {
		copy(r.block[:have], r.buf)
	}
	r.block = r.block[:cap(r.block)]
	n, err := r.f.ReadAt(r.block[have:], r.off+int64(have))
	r.buf = r.block[:have+n]
	if err == io.EOF {
		err = nil
	}
	return n, err
}

// openSegment makes the segment that holds seq — the last one whose first
// record is ≤ seq — the open one, positioned at its first frame. With a
// segment already open this is the step to its successor, which must start
// at seq exactly: the writer only rotates after fsyncing the outgoing
// segment, so when the durable horizon says seq exists and the current
// segment ended, the successor is already on disk.
func (r *TailReader) openSegment(seq uint64) error {
	names, firstSeqs, err := listSegments(r.dir)
	if err != nil {
		return fmt.Errorf("journal: tail: %w", err)
	}
	idx := sort.Search(len(firstSeqs), func(i int) bool { return firstSeqs[i] > seq }) - 1
	if idx < 0 {
		return fmt.Errorf("journal: tail: seq %d precedes the oldest segment (log pruned)", seq)
	}
	if r.f != nil && firstSeqs[idx] != seq {
		return fmt.Errorf("journal: tail: seq %d durable but segment %s ends before it and none starts there (gap)", seq, names[idx])
	}
	f, err := os.Open(filepath.Join(r.dir, names[idx]))
	if err != nil {
		return fmt.Errorf("journal: tail: %w", err)
	}
	r.Close()
	r.f, r.at, r.off, r.buf = f, firstSeqs[idx], 0, r.buf[:0]
	return nil
}

// DecodeFrames validates and decodes one shipped batch: consecutive raw
// frames, each cut by nextFrame and decoded by decodeRecord, whose sequence
// numbers run first, first+1, … with no bytes left over. The registry
// mutations are appended to dst (pass the previous call's result resliced to
// zero to reuse its storage; application records are checked and skipped —
// only mutations replay into a store) and the last sequence number decoded is
// returned, so the batch held last−first+1 records. A batch with no frame in
// it is refused like any other malformed one. This is the follower-side check
// on what a peer sent: anything wrong means the transport or the primary
// lied, and the connection — not the local state — is what must die.
func DecodeFrames(dst []registry.Mutation, data []byte, first uint64) (ms []registry.Mutation, last uint64, err error) {
	if len(data) == 0 {
		return dst, 0, fmt.Errorf("journal: frames: empty batch")
	}
	expect := first
	for off := 0; off < len(data); {
		f, size, err := nextFrame(data[off:])
		if err != nil {
			return dst, 0, fmt.Errorf("journal: frames: offset %d: %w", off, err)
		}
		if f.seq != expect {
			return dst, 0, fmt.Errorf("journal: frames: seq %d where %d expected", f.seq, expect)
		}
		dst = append(dst, registry.Mutation{})
		app, err := decodeRecord(f, &dst[len(dst)-1])
		if err != nil {
			return dst, 0, err
		}
		if app != nil {
			dst = dst[:len(dst)-1]
		}
		off += size
		expect++
	}
	return dst, expect - 1, nil
}
