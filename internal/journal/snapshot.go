package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"dropzero/internal/par"
	"dropzero/internal/registry"
)

// Snapshot files are named snap-<seq>.snap, where <seq> is the WAL sequence
// number the captured state includes: recovery restores the snapshot, then
// replays records with sequence numbers strictly greater. Every snapshot is
// written to a temp name, fsynced and renamed, so a half-written snapshot
// never shadows a complete older one.
//
// Two formats share the name scheme, told apart by their magic header. New
// snapshots are always v2 (snapv2.go): per-shard binary sections that
// encode and restore in parallel. This file keeps the shared naming/
// listing/pruning machinery plus the reader of the v1 format — a single gob
// stream of snapshotFile with a trailing CRC-32 — so pre-upgrade datadirs
// open cleanly. Nothing outside the tests writes gob any more.
const (
	snapMagic  = "DZSNAP1\n"
	snapFooter = 4 // CRC-32 of the gob stream
)

// snapshotFile is the gob payload of one snapshot.
type snapshotFile struct {
	// Seq is the WAL sequence number of the last mutation the state
	// includes.
	Seq uint64
	// AppState is the application's own checkpoint blob (the simulation
	// driver's pipeline and progress state); opaque to the journal.
	AppState []byte
	// State is the registry's full durable state.
	State registry.SnapshotState
}

func snapName(seq uint64) string { return fmt.Sprintf("snap-%020d.snap", seq) }

func parseSnapName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "snap-") || !strings.HasSuffix(name, ".snap") {
		return 0, false
	}
	n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), ".snap"), 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// listSnapshots returns dir's snapshot files in ascending sequence order.
func listSnapshots(dir string) (names []string, seqs []uint64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	type snap struct {
		name string
		seq  uint64
	}
	var snaps []snap
	for _, e := range entries {
		if seq, ok := parseSnapName(e.Name()); ok {
			snaps = append(snaps, snap{e.Name(), seq})
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].seq < snaps[j].seq })
	for _, s := range snaps {
		names = append(names, s.name)
		seqs = append(seqs, s.seq)
	}
	return names, seqs, nil
}

// decodeSnapshotBytes verifies and decodes one snapshot file image; name
// labels errors (a file's base name, or "shipped" for replicated bytes).
func decodeSnapshotBytes(data []byte, name string) (*snapshotFile, error) {
	if len(data) < len(snapMagic)+snapFooter || string(data[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("journal: snapshot %s: bad header", name)
	}
	body := data[:len(data)-snapFooter]
	want := binary.LittleEndian.Uint32(data[len(data)-snapFooter:])
	if crc32.ChecksumIEEE(body) != want {
		return nil, fmt.Errorf("journal: snapshot %s: CRC mismatch", name)
	}
	var sf snapshotFile
	// bytes.NewReader over the existing slice: the gob stream is read in
	// place, not round-tripped through a snapshot-sized string copy.
	if err := gob.NewDecoder(bytes.NewReader(body[len(snapMagic):])).Decode(&sf); err != nil {
		return nil, fmt.Errorf("journal: snapshot %s: %w", name, err)
	}
	return &sf, nil
}

// snapRestore reports what restoreLatestSnapshot installed, with the phase
// timings recovery logging wants.
type snapRestore struct {
	found    bool
	seq      uint64
	appState []byte
	bytes    int64

	read    time.Duration // file read
	decode  time.Duration // v2: framing+CRC validation pass · v1: gob decode
	install time.Duration // decode-and-install into the store
}

// restoreLatestSnapshot installs the newest snapshot in dir that verifies
// into the empty store, reading either format (v2 sectioned binary, v1
// gob). A snapshot that fails verification is skipped in favour of the
// next older one — it can only be the product of a crash mid-write racing
// the rename, and the WAL still covers everything since the older
// snapshot; because both readers fully validate before installing, the
// store is still untouched when the fallback happens. An *install* failure
// is fatal: the file verified, so its content disagreeing with the store
// is data loss, and the store is part-filled.
func restoreLatestSnapshot(store *registry.Store, dir string, workers int) (snapRestore, error) {
	var sr snapRestore
	names, _, err := listSnapshots(dir)
	if err != nil {
		return sr, fmt.Errorf("journal: list snapshots: %w", err)
	}
	var firstErr error
	for i := len(names) - 1; i >= 0; i-- {
		path := filepath.Join(dir, names[i])
		t0 := time.Now()
		data, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("journal: read snapshot: %w", err)
			}
			continue
		}
		sr.read = time.Since(t0)
		sr.bytes = int64(len(data))
		if isSnapshotV2(data) {
			t1 := time.Now()
			sv, err := parseSnapshotV2(data, names[i])
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			sr.decode = time.Since(t1)
			t2 := time.Now()
			if err := installSnapshotV2(store, sv, workers); err != nil {
				return sr, err
			}
			sr.install = time.Since(t2)
			sr.found, sr.seq, sr.appState = true, sv.meta.seq, sv.meta.appState
			return sr, nil
		}
		t1 := time.Now()
		sf, err := decodeSnapshotBytes(data, names[i])
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		sr.decode = time.Since(t1)
		t2 := time.Now()
		if err := store.RestoreSnapshot(sf.State); err != nil {
			return sr, err
		}
		sr.install = time.Since(t2)
		sr.found, sr.seq, sr.appState = true, sf.Seq, sf.AppState
		return sr, nil
	}
	if firstErr != nil && len(names) > 0 {
		// Every snapshot present is broken: that is not a crash artefact
		// (rename is atomic), it is data loss. Refuse to guess.
		return snapRestore{}, firstErr
	}
	return snapRestore{}, nil
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

// RestoreShippedSnapshot verifies a raw snapshot file image (as shipped
// over replication), installs it into the empty store with a worker per
// core and returns the WAL sequence it covers. Both formats are accepted:
// the source streams whatever file its directory holds, so a fresh follower
// must read a v1 snapshot a pre-upgrade primary wrote. Verification
// completes before the store is touched; on error the store is unchanged.
func RestoreShippedSnapshot(store *registry.Store, data []byte) (uint64, error) {
	workers := par.Workers(0)
	if isSnapshotV2(data) {
		sv, err := parseSnapshotV2(data, "shipped")
		if err != nil {
			return 0, err
		}
		return sv.meta.seq, installSnapshotV2(store, sv, workers)
	}
	sf, err := decodeSnapshotBytes(data, "shipped")
	if err != nil {
		return 0, err
	}
	return sf.Seq, store.RestoreSnapshot(sf.State)
}

// WriteRawSnapshot installs a raw snapshot file image into dir under its
// canonical name, with the same temp-fsync-rename dance snapImage.write uses.
// A follower persists the shipped snapshot this way so its own restart can
// recover locally instead of re-fetching.
func WriteRawSnapshot(dir string, seq uint64, data []byte) error {
	final := filepath.Join(dir, snapName(seq))
	tmp := final + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("journal: snapshot: %w", err)
	}
	defer os.Remove(tmp)
	_, werr := f.Write(data)
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("journal: write snapshot: %w", werr)
	}
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("journal: publish snapshot: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("journal: sync dir: %w", err)
	}
	return nil
}
