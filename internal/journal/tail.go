package journal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"dropzero/internal/registry"
)

// This file is the journal's replication surface: reading the log as raw
// bytes instead of replaying it. A primary ships its segment files to
// followers frame-for-frame (TailReader), a follower validates and decodes
// what arrived (DecodeFrames), rebuilds state without ever opening the log
// for writing (Replay), and — on promotion — takes over the write role at a
// known position (OpenExisting).

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
type TailReader struct {
	dir      string
	next     uint64 // next sequence number to emit
	f        *os.File
	curFirst uint64 // first-record seq of the open segment
	off      int64
	scratch  []byte // payload read buffer, grown on demand
}

// NewTailReader returns a reader that emits records with sequence numbers
// strictly greater than afterSeq from dir's segments.
func NewTailReader(dir string, afterSeq uint64) *TailReader {
	return &TailReader{dir: dir, next: afterSeq + 1}
}

// NextSeq returns the sequence number the next emitted record will have.
func (r *TailReader) NextSeq() uint64 { return r.next }

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
// never produces an unbounded message. Frames are CRC-verified before being
// emitted: serving a corrupt byte to a follower is a primary-side error,
// not something to leave for the far end to discover.
func (r *TailReader) Next(dst []byte, durable uint64, maxBytes int) (out []byte, first, last uint64, err error) {
	out = dst
	base := len(dst)
	for r.next <= durable && len(out)-base < maxBytes {
		if r.f == nil {
			if err := r.openSegmentFor(r.next); err != nil {
				return out, first, last, err
			}
		}
		var hdr [frameHeader]byte
		n, rerr := r.f.ReadAt(hdr[:], r.off)
		if n < frameHeader {
			if rerr == io.EOF || rerr == nil {
				// Clean end of this segment: the record lives in the
				// successor the writer rotated to.
				if err := r.advanceSegment(); err != nil {
					return out, first, last, err
				}
				continue
			}
			return out, first, last, fmt.Errorf("journal: tail read: %w", rerr)
		}
		ln := int64(binary.LittleEndian.Uint32(hdr[0:4]))
		crc := binary.LittleEndian.Uint32(hdr[4:8])
		if ln < payloadHeader || ln > maxRecordBytes {
			return out, first, last, fmt.Errorf("journal: tail seq %d: bad record length %d", r.next, ln)
		}
		if int64(cap(r.scratch)) < ln {
			r.scratch = make([]byte, ln)
		}
		payload := r.scratch[:ln]
		if _, rerr := io.ReadFull(io.NewSectionReader(r.f, r.off+frameHeader, ln), payload); rerr != nil {
			return out, first, last, fmt.Errorf("journal: tail seq %d: short frame: %w", r.next, rerr)
		}
		if crc32.ChecksumIEEE(payload) != crc {
			return out, first, last, fmt.Errorf("journal: tail seq %d: CRC mismatch", r.next)
		}
		seq := binary.LittleEndian.Uint64(payload)
		if seq != r.next {
			return out, first, last, fmt.Errorf("journal: tail: seq %d where %d expected", seq, r.next)
		}
		out = append(out, hdr[:]...)
		out = append(out, payload...)
		if first == 0 {
			first = seq
		}
		last = seq
		r.off += frameHeader + ln
		r.next++
	}
	return out, first, last, nil
}

// openSegmentFor opens the segment holding seq and skips to its frame.
func (r *TailReader) openSegmentFor(seq uint64) error {
	names, firstSeqs, err := listSegments(r.dir)
	if err != nil {
		return fmt.Errorf("journal: tail: %w", err)
	}
	idx := -1
	for i := range firstSeqs {
		if firstSeqs[i] <= seq {
			idx = i
		}
	}
	if idx < 0 {
		return fmt.Errorf("journal: tail: seq %d precedes the oldest segment (log pruned)", seq)
	}
	f, err := os.Open(filepath.Join(r.dir, names[idx]))
	if err != nil {
		return fmt.Errorf("journal: tail: %w", err)
	}
	r.f, r.curFirst, r.off = f, firstSeqs[idx], 0
	// Skip whole frames for records before seq. Headers alone carry enough
	// to hop frame to frame; the CRC of skipped records is not our problem —
	// recovery already vouched for them.
	want := firstSeqs[idx]
	for want < seq {
		var hdr [frameHeader]byte
		if _, err := r.f.ReadAt(hdr[:], r.off); err != nil {
			return fmt.Errorf("journal: tail: skipping to seq %d: %w", seq, err)
		}
		ln := int64(binary.LittleEndian.Uint32(hdr[0:4]))
		if ln < payloadHeader || ln > maxRecordBytes {
			return fmt.Errorf("journal: tail: skipping to seq %d: bad record length %d", seq, ln)
		}
		r.off += frameHeader + ln
		want++
	}
	return nil
}

// advanceSegment switches to the segment whose first record is next. The
// writer only rotates after fsyncing the outgoing segment, so when the
// durable horizon says next exists and the current segment ended, the
// successor is already on disk.
func (r *TailReader) advanceSegment() error {
	names, firstSeqs, err := listSegments(r.dir)
	if err != nil {
		return fmt.Errorf("journal: tail: %w", err)
	}
	for i := range firstSeqs {
		if firstSeqs[i] > r.curFirst {
			if firstSeqs[i] != r.next {
				return fmt.Errorf("journal: tail: segment %s starts at seq %d, want %d (gap)", names[i], firstSeqs[i], r.next)
			}
			f, err := os.Open(filepath.Join(r.dir, names[i]))
			if err != nil {
				return fmt.Errorf("journal: tail: %w", err)
			}
			r.f.Close()
			r.f, r.curFirst, r.off = f, firstSeqs[i], 0
			return nil
		}
	}
	return fmt.Errorf("journal: tail: seq %d durable but no segment holds it", r.next)
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
