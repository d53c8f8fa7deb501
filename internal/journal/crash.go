package journal

import (
	"bytes"
	"os"
	"path/filepath"

	"dropzero/internal/registry"
)

// Record is one recovered WAL entry: a registry mutation or an opaque
// application record (the simulation driver's own checkpoint stream).
type Record struct {
	Seq      uint64
	Mutation *registry.Mutation
	App      []byte
}

// Scan reads every record in dir's WAL with sequence number strictly greater
// than after, in order, decoded into memory; the framing, corruption and
// torn-tail rules are scanFrames's (replay.go). It is the read-only companion
// to CrashCopy: crash-recovery tests scan an uninterrupted run's full log to
// pick cut points (and as the oracle for what a prefix replay must yield).
// Recovery itself streams through replayTail.
func Scan(dir string, after uint64) (records []Record, err error) {
	_, err = scanFrames(dir, after, func(f frame) error {
		m := new(registry.Mutation)
		app, err := decodeRecord(f, m)
		if err != nil {
			return err
		}
		if app != nil {
			m = nil
		}
		records = append(records, Record{Seq: f.seq, Mutation: m, App: app})
		return nil
	})
	return records, err
}

// CrashCopy copies the journal directory src into dst as a kill -9 at WAL
// sequence keepSeq would have left it: snapshots newer than keepSeq never
// happened, records after keepSeq never reached the disk, and — when
// tornBytes > 0 — the write in flight at the crash left that many bytes of
// garbage after the last surviving record. Crash-recovery tests use this to
// manufacture every interesting crash point from one uninterrupted
// reference run (taken with Options.KeepAll so no history was pruned).
func CrashCopy(src, dst string, keepSeq uint64, tornBytes int) error {
	if err := os.MkdirAll(dst, 0o777); err != nil {
		return err
	}

	snapNames, snapSeqs, err := listSnapshots(src)
	if err != nil {
		return err
	}
	for i, name := range snapNames {
		if snapSeqs[i] > keepSeq {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, name), data, 0o666); err != nil {
			return err
		}
	}

	segNames, firstSeqs, err := listSegments(src)
	if err != nil {
		return err
	}
	lastWritten := ""
	for i, name := range segNames {
		if firstSeqs[i] > keepSeq {
			break
		}
		data, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			return err
		}
		path := filepath.Join(dst, name)
		if err := os.WriteFile(path, data[:frameBoundary(data, keepSeq)], 0o666); err != nil {
			return err
		}
		lastWritten = path
	}
	if tornBytes > 0 && lastWritten != "" {
		// 0xFF bytes parse as an absurd length field, which recovery must
		// classify as a torn tail of the final segment.
		f, err := os.OpenFile(lastWritten, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			return err
		}
		_, werr := f.Write(bytes.Repeat([]byte{0xff}, tornBytes))
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return werr
		}
	}
	return nil
}

// frameBoundary returns the byte offset just after the last whole record in
// data with sequence number ≤ keepSeq.
func frameBoundary(data []byte, keepSeq uint64) int {
	off := 0
	for off < len(data) {
		f, size, err := nextFrame(data[off:])
		if err != nil || f.seq > keepSeq {
			break
		}
		off += size
	}
	return off
}
