package journal

import (
	"fmt"
	"os"
	"path/filepath"
)

// FollowerLog persists raw WAL frames shipped from a replication primary
// into a local journal directory, byte-identical to the primary's segments.
// It is the write half of a follower's durability: frames arrive already
// framed and checksummed (the primary's TailReader emitted them verbatim),
// so the log only appends, rotates, and fsyncs — it never assigns sequence
// numbers or encodes records. Because the on-disk format is exactly the
// writer's, the ordinary recovery path (Replay, or Open after promotion)
// reads a follower's directory with no special cases.
//
// A FollowerLog is single-goroutine, matching the follower's apply loop.
type FollowerLog struct {
	dir     string
	f       *os.File
	size    int64
	lastSeq uint64
	bytes   uint64
}

// OpenFollowerLog opens dir for appending shipped frames, with lastSeq the
// highest sequence number already recovered from it (0 for a fresh
// follower). Like the writer after recovery, it starts a fresh segment at
// lastSeq+1 rather than reopening the old tail.
func OpenFollowerLog(dir string, lastSeq uint64) (*FollowerLog, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	l := &FollowerLog{dir: dir, lastSeq: lastSeq}
	if err := l.openSegment(); err != nil {
		return nil, err
	}
	return l, nil
}

// openSegment starts the segment whose first record will be lastSeq+1.
func (l *FollowerLog) openSegment() error {
	f, err := openSegment(l.dir, l.lastSeq+1, l.f)
	if err != nil {
		return err
	}
	l.f, l.size = f, 0
	return nil
}

// LastSeq returns the highest sequence number appended (not necessarily
// fsynced — call Sync before acknowledging it to the primary).
func (l *FollowerLog) LastSeq() uint64 { return l.lastSeq }

// Bytes returns the total frame bytes appended this process.
func (l *FollowerLog) Bytes() uint64 { return l.bytes }

// AppendFrames appends one shipped batch of raw frames covering sequences
// first..last, which must continue the log exactly. The caller has already
// CRC-validated the batch (DecodeFrames); this only lands the bytes. The
// segment rotates after the batch when full — rotation fsyncs the outgoing
// segment first, preserving the writer's durable-prefix invariant.
func (l *FollowerLog) AppendFrames(raw []byte, first, last uint64) error {
	if first != l.lastSeq+1 {
		return fmt.Errorf("journal: follower log at seq %d given batch starting %d", l.lastSeq, first)
	}
	if _, err := l.f.Write(raw); err != nil {
		return fmt.Errorf("journal: follower log append: %w", err)
	}
	l.size += int64(len(raw))
	l.bytes += uint64(len(raw))
	l.lastSeq = last
	if l.size >= defaultSegmentBytes {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("journal: follower log sync: %w", err)
		}
		if err := l.openSegment(); err != nil {
			return err
		}
	}
	return nil
}

// Sync fsyncs the current segment. The follower calls this before each
// acknowledgement so an acked sequence is durable locally — the property
// the semi-sync primary relies on for zero-loss failover.
func (l *FollowerLog) Sync() error {
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("journal: follower log sync: %w", err)
	}
	return nil
}

// StartAt restarts the log at lastSeq after a snapshot install. Only a
// fresh follower (nothing appended, position 0) takes this path: the
// snapshot covers sequences 1..lastSeq, so the empty initial segment named
// for sequence 1 is removed and a new one starts at lastSeq+1.
func (l *FollowerLog) StartAt(lastSeq uint64) error {
	if l.lastSeq != 0 || l.size != 0 {
		return fmt.Errorf("journal: follower log restart at seq %d after %d records", lastSeq, l.lastSeq)
	}
	old := filepath.Join(l.dir, segName(1))
	l.f.Close()
	l.f = nil
	if err := os.Remove(old); err != nil {
		return fmt.Errorf("journal: follower log restart: %w", err)
	}
	l.lastSeq = lastSeq
	return l.openSegment()
}

// Close fsyncs and closes the current segment.
func (l *FollowerLog) Close() error {
	if l.f == nil {
		return nil
	}
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	if err != nil {
		return fmt.Errorf("journal: follower log close: %w", err)
	}
	return nil
}
