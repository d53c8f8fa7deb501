package journal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dropzero/internal/registry"
)

// Snapshot files are named snap-<seq>.snap, where <seq> is the WAL sequence
// number the captured state includes: recovery restores the snapshot, then
// replays records with sequence numbers strictly greater. This file is the
// snapshot's life on disk — publishing, finding, restoring, pruning,
// shipping; the format itself is snapv2.go.

// writeFileAtomic publishes dir/name with the bytes write produces: written
// to a temp name, fsynced, renamed into place, the directory fsynced — so a
// half-written snapshot never shadows a complete older one.
func writeFileAtomic(dir, name string, write func(f *os.File) error) (string, error) {
	final := filepath.Join(dir, name)
	tmp := final + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return "", fmt.Errorf("journal: snapshot: %w", err)
	}
	defer os.Remove(tmp) // no-op after the rename succeeds
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("journal: write snapshot: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		return "", fmt.Errorf("journal: publish snapshot: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return "", fmt.Errorf("journal: sync dir: %w", err)
	}
	return final, nil
}

// loadSnapshot reads and verifies one snapshot file, keeping its size and
// the phase timings in rec.
func (rec *Recovery) loadSnapshot(path string) (*snapV2, error) {
	t0 := time.Now()
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("journal: read snapshot: %w", err)
	}
	rec.Timings.SnapshotRead, rec.SnapshotBytes = time.Since(t0), int64(len(data))
	t1 := time.Now()
	sv, err := parseSnapshotV2(data, filepath.Base(path))
	rec.Timings.SnapshotDecode = time.Since(t1)
	return sv, err
}

// restoreLatestSnapshot installs the newest snapshot in dir that verifies
// into the empty store and returns the snapshot half of the Recovery — found
// false, and nothing else set, when dir holds none. A snapshot that fails
// verification is skipped in favour of the next older one — it can only be
// the product of a crash mid-write racing the rename, and the WAL still
// covers everything since the older snapshot; because parseSnapshotV2 fully
// validates before anything is installed, the store is still untouched when
// the fallback happens. Two failures are not skipped: a snapshot in a format
// this build does not read (errSnapshotFormat — not a crash artefact, and
// what lies behind it may be arbitrarily old) and an *install* failure (the
// file verified, so its content disagreeing with the store is data loss, and
// the store is part-filled).
func restoreLatestSnapshot(store *registry.Store, dir string, workers int) (rec Recovery, found bool, err error) {
	names, _, err := listSnapshots(dir)
	if err != nil {
		return rec, false, fmt.Errorf("journal: list snapshots: %w", err)
	}
	var firstErr error
	for i := len(names) - 1; i >= 0; i-- {
		sv, err := rec.loadSnapshot(filepath.Join(dir, names[i]))
		if errors.Is(err, errSnapshotFormat) {
			return Recovery{}, false, err
		}
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		t0 := time.Now()
		if err := installSnapshotV2(store, sv, workers); err != nil {
			return rec, false, err
		}
		rec.Timings.SnapshotInstall = time.Since(t0)
		rec.SnapshotSeq, rec.AppState = sv.meta.seq, sv.meta.appState
		return rec, true, nil
	}
	// Every snapshot present is broken: that is not a crash artefact (rename
	// is atomic), it is data loss. Refuse to guess.
	return Recovery{}, false, firstErr
}

// pruneAfterSnapshot removes snapshots older than snapSeq and every WAL
// segment fully covered by position segSeq: a segment is removable when its
// successor's first record is still ≤ segSeq+1, meaning no record after
// segSeq lives in it. The current append segment is never covered by
// construction (its records are newer than any snapshot). segSeq is
// normally snapSeq, lowered to the replication retain floor while followers
// are mid-stream — they read records from the segment files directly, so
// segments must outlive the snapshot that supersedes them for state
// rebuilding.
func pruneAfterSnapshot(dir string, snapSeq, segSeq uint64) error {
	snapNames, snapSeqs, err := listSnapshots(dir)
	if err != nil {
		return err
	}
	for i, name := range snapNames {
		if snapSeqs[i] < snapSeq {
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return err
			}
		}
	}
	segNames, firstSeqs, err := listSegments(dir)
	if err != nil {
		return err
	}
	for i := 0; i+1 < len(segNames); i++ {
		if firstSeqs[i+1] <= segSeq+1 {
			if err := os.Remove(filepath.Join(dir, segNames[i])); err != nil {
				return err
			}
		}
	}
	return syncDir(dir)
}

// LatestSnapshotPath returns dir's newest snapshot file and its sequence
// number, with ok=false when the directory holds none. The replication
// source streams this file's raw bytes to a fresh follower; it relies on
// POSIX unlink semantics (an opened file survives a concurrent prune), so
// callers open the path before doing anything slow.
func LatestSnapshotPath(dir string) (path string, seq uint64, ok bool, err error) {
	names, seqs, err := listSnapshots(dir)
	if err != nil {
		return "", 0, false, fmt.Errorf("journal: list snapshots: %w", err)
	}
	if len(names) == 0 {
		return "", 0, false, nil
	}
	i := len(names) - 1
	return filepath.Join(dir, names[i]), seqs[i], true, nil
}

// restoreShipped verifies a raw snapshot file image (as shipped over
// replication), installs it into the empty store over workers goroutines
// and returns the WAL sequence it covers — recovery's parseSnapshotV2 →
// installSnapshotV2 path, format refusals included. Verification completes
// before the store is touched; on a verification error the store is
// unchanged.
func restoreShipped(store *registry.Store, data []byte, workers int) (uint64, error) {
	sv, err := parseSnapshotV2(data, "shipped")
	if err != nil {
		return 0, err
	}
	return sv.meta.seq, installSnapshotV2(store, sv, workers)
}

// InstallSnapshot bootstraps a follower's empty journal from the snapshot
// file image its primary shipped: it verifies the image, installs it into
// the empty store, publishes it under its canonical name as atomically as
// Snapshot publishes its own, and restarts the log after the sequence it
// covers, which it returns. A journal that holds records is refused before
// the store or the directory is touched, and so is an image that fails
// verification.
func (j *Journal) InstallSnapshot(raw []byte) (uint64, error) {
	if last := j.LastSeq(); last != 0 {
		return 0, fmt.Errorf("journal: install a snapshot over a log at seq %d", last)
	}
	seq, err := restoreShipped(j.store, raw, j.workers)
	if err != nil {
		return 0, err
	}
	if _, err := writeFileAtomic(j.w.dir, snapName(seq), func(f *os.File) error {
		_, err := f.Write(raw)
		return err
	}); err != nil {
		return 0, err
	}
	if err := j.w.restartAfter(seq); err != nil {
		return 0, err
	}
	j.lastSnapUnix.Store(time.Now().Unix())
	return seq, nil
}
