package journal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"
	"unsafe"

	"dropzero/internal/model"
	"dropzero/internal/registry"
	"dropzero/internal/simtime"
)

// newShardedTestStore returns an empty store with a fixed shard count, so
// the parallel snapshot and replay paths are exercised even on a single-core
// test machine (NewStore derives its shard count from GOMAXPROCS).
func newShardedTestStore(shards int) *registry.Store {
	return registry.NewStoreWithShards(simtime.NewSimClock(testStart.At(0, 0, 0)), shards)
}

func openJournalP(t *testing.T, s *registry.Store, dir string, parallelism int, keepAll bool) (*Journal, Recovery) {
	t.Helper()
	j, rec, err := Open(s, Options{Dir: dir, Mode: ModeSync, KeepAll: keepAll, RecoveryParallelism: parallelism})
	if err != nil {
		t.Fatalf("open journal (parallelism %d): %v", parallelism, err)
	}
	return j, rec
}

// latestSnapshotBytes reads dir's newest snapshot file.
func latestSnapshotBytes(t *testing.T, dir string) (string, []byte) {
	t.Helper()
	path, _, ok, err := LatestSnapshotPath(dir)
	if err != nil || !ok {
		t.Fatalf("no snapshot in %s: %v", dir, err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, data
}

// TestSnapshotV2RoundTrip: a snapshot written by a multi-shard store must
// carry the one magic written and restore byte-identically into stores of
// *different* shard counts, both sequentially and in parallel — the writer's
// shard split is an encoding detail, not a restore contract.
func TestSnapshotV2RoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := newShardedTestStore(8)
	j, _ := openJournalP(t, s, dir, 8, false)
	s.SetJournal(j)
	workout(t, s, 21, 200)
	if err := j.Snapshot([]byte("v2-app-state")); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	// Post-snapshot traffic becomes the WAL tail recovery must stitch on.
	for i := 0; i < 25; i++ {
		if _, err := s.CreateAt(fmt.Sprintf("v2tail%03d.com", i), 901, 1, testStart.At(14, 0, i)); err != nil {
			t.Fatal(err)
		}
	}
	want := dumpVisible(s)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	_, data := latestSnapshotBytes(t, dir)
	if string(data[:len(snapMagic)]) != snapMagic {
		t.Fatalf("new snapshot has magic %q, want %q", data[:8], snapMagic)
	}

	for _, tc := range []struct {
		name        string
		shards      int
		parallelism int
	}{
		{"parallel-2shards", 2, 4},
		{"parallel-32shards", 32, 8},
		{"sequential-8shards", 8, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s2 := newShardedTestStore(tc.shards)
			j2, rec := openJournalP(t, s2, dir, tc.parallelism, false)
			defer j2.Close()
			if rec.SnapshotSeq == 0 {
				t.Fatal("recovery did not load the snapshot")
			}
			if string(rec.AppState) != "v2-app-state" {
				t.Fatalf("app state corrupted: %q", rec.AppState)
			}
			if rec.ReplayedRecords != 25 {
				t.Fatalf("replayed %d records, want the 25-record tail", rec.ReplayedRecords)
			}
			if got := dumpVisible(s2); got != want {
				t.Error("v2 snapshot recovery differs from original")
			}
			if rec.Timings.Total <= 0 {
				t.Error("recovery timings not populated")
			}
		})
	}
}

// corruptionVariant mutates a pristine v2 snapshot image into one flavour of
// damage. Every variant must make restore fail loudly with the store
// untouched.
var snapCorruptions = []struct {
	name   string
	mangle func(data []byte) []byte
}{
	{"flip-section-body", func(data []byte) []byte {
		out := append([]byte(nil), data...)
		out[len(out)/2] ^= 0x20 // interior of some section body
		return out
	}},
	{"truncate-tail", func(data []byte) []byte {
		return append([]byte(nil), data[:len(data)-7]...) // torn mid-section
	}},
	{"truncate-mid-header", func(data []byte) []byte {
		return append([]byte(nil), data[:len(snapMagic)+3]...) // partial first header
	}},
	{"oversized-length", func(data []byte) []byte {
		out := append([]byte(nil), data...)
		binary.LittleEndian.PutUint32(out[len(snapMagic):], 1<<30) // meta claims a body past EOF
		return out
	}},
	{"flip-crc", func(data []byte) []byte {
		out := append([]byte(nil), data...)
		out[len(snapMagic)+4] ^= 0xff // meta section's stored CRC
		return out
	}},
}

// TestSnapshotV2CorruptionFailsLoudly: every flavour of torn or corrupt v2
// section must fail verification before the store is touched — no partial
// restore — and with no older snapshot to fall back to, recovery must
// refuse to open.
func TestSnapshotV2CorruptionFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	s := newShardedTestStore(8)
	j, _ := openJournalP(t, s, dir, 8, false)
	s.SetJournal(j)
	workout(t, s, 22, 120)
	if err := j.Snapshot(nil); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	path, pristine := latestSnapshotBytes(t, dir)

	for _, tc := range snapCorruptions {
		t.Run(tc.name, func(t *testing.T) {
			cdir := t.TempDir()
			if err := os.WriteFile(filepath.Join(cdir, filepath.Base(path)), tc.mangle(pristine), 0o666); err != nil {
				t.Fatal(err)
			}
			// Direct restore: the error must surface with the store empty.
			s2 := newShardedTestStore(4)
			_, found, err := restoreLatestSnapshot(s2, cdir, 4)
			if err == nil {
				t.Fatal("corrupt v2 snapshot restored without error")
			}
			if found {
				t.Error("restore reported found despite failing")
			}
			if s2.Count() != 0 || s2.Generation() != 0 || len(s2.Registrars()) != 0 {
				t.Errorf("partial restore leaked into the store: count=%d gen=%d regs=%d",
					s2.Count(), s2.Generation(), len(s2.Registrars()))
			}
			// Full recovery: the only snapshot is broken, so Open must fail
			// loudly rather than silently serve pre-snapshot state.
			if _, _, err := Open(newShardedTestStore(4), Options{Dir: cdir, Mode: ModeSync}); err == nil {
				t.Fatal("Open succeeded over a solitary corrupt snapshot")
			}
		})
	}
}

// TestSnapshotV2FallbackToOlder: a corrupt newest snapshot (the signature of
// a crash racing the rename) is skipped in favour of the older one, whose
// WAL tail still covers everything — recovered state must be identical.
func TestSnapshotV2FallbackToOlder(t *testing.T) {
	dir := t.TempDir()
	s := newShardedTestStore(8)
	j, _ := openJournalP(t, s, dir, 8, true) // KeepAll retains the older snapshot
	s.SetJournal(j)
	workout(t, s, 23, 100)
	if err := j.Snapshot(nil); err != nil {
		t.Fatal(err)
	}
	olderSeq := j.LastSeq()
	for i := 0; i < 30; i++ {
		if _, err := s.CreateAt(fmt.Sprintf("between%03d.com", i), 902, 1, testStart.At(15, 0, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Snapshot(nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := s.CreateAt(fmt.Sprintf("after%03d.com", i), 902, 1, testStart.At(16, 0, i)); err != nil {
			t.Fatal(err)
		}
	}
	want := dumpVisible(s)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	path, data := latestSnapshotBytes(t, dir)
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}

	s2 := newShardedTestStore(8)
	j2, rec := openJournalP(t, s2, dir, 8, false)
	defer j2.Close()
	if rec.SnapshotSeq != olderSeq {
		t.Fatalf("recovered from snapshot seq %d, want fallback to %d", rec.SnapshotSeq, olderSeq)
	}
	if got := dumpVisible(s2); got != want {
		t.Error("fallback recovery differs from original")
	}
}

// TestParallelReplayDifferential: a history of more than three replay
// windows — with an AddRegistrar and an AddZone landing inside a window and a
// Drop whose purges straddle a window boundary — must come out the same from
// three replays: record-at-a-time Store.Apply over Scan (the oracle, none of
// the window loop), recovery on the calling goroutine alone, and recovery
// with eight workers. Same means dumpVisible (every field, transfer code and
// day of the deletion archive), the generation counter and the recovered
// sequence. Run under -race this also exercises the loop's synchronisation.
func TestParallelReplayDifferential(t *testing.T) {
	for _, seed := range []int64{31, 32, 33} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			s := newShardedTestStore(8)
			j, _, err := Open(s, Options{Dir: dir, Mode: ModeAsync})
			if err != nil {
				t.Fatal(err)
			}
			s.SetJournal(j)
			at := testStart.At(10, 0, 0)
			pads := 0
			pad := func() {
				if _, err := s.CreateAt(fmt.Sprintf("pad%06d.com", pads), 900, 1, at); err != nil {
					t.Fatal(err)
				}
				pads++
			}
			// padUntil appends creates until the next record's position
			// inside its replay window is pos.
			padUntil := func(pos uint64) {
				for j.LastSeq()%replayWindow != pos {
					pad()
				}
			}
			workout(t, s, seed, 3000)
			padUntil(1500)
			s.AddRegistrar(model.Registrar{IANAID: 950, Name: "Mid-window Reg"})
			if err := s.AddZone(testNordic()); err != nil {
				t.Fatal(err)
			}
			dropDay := testStart.AddDays(5)
			for i := 0; i < 300; i++ {
				// The zone's first names follow it in the same window, and the
				// default zone gets a Drop's worth of names due on dropDay.
				if _, err := s.CreateAt(fmt.Sprintf("mid%03d.se", i), 950, 1, at); err != nil {
					t.Fatal(err)
				}
				if _, err := s.SeedAt(fmt.Sprintf("due%03d.com", i), 950, at.AddDate(-2, 0, 0), at.Add(time.Duration(i)*time.Second),
					at.AddDate(0, 0, -40), model.StatusPendingDelete, dropDay); err != nil {
					t.Fatal(err)
				}
			}
			padUntil(replayWindow - 150)
			runner := registry.NewDropRunner(s, registry.DefaultDropConfig())
			if evs, err := runner.Run(dropDay, rand.New(rand.NewSource(seed))); err != nil || len(evs) != 300 {
				t.Fatalf("drop purged %d names (%v), want 300", len(evs), err)
			}
			for j.LastSeq() < 13_000 {
				pad()
			}
			want, wantGen, wantSeq := dumpVisible(s), s.Generation(), j.LastSeq()
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}

			// The oracle leg, and the shape the history was built to have.
			records, err := Scan(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			oracle := newShardedTestStore(8)
			straddles := false
			for i, r := range records {
				if err := oracle.Apply(*r.Mutation); err != nil {
					t.Fatalf("oracle replay seq %d: %v", r.Seq, err)
				}
				if k := r.Mutation.Kind; (k == registry.MutAddZone || r.Mutation.Registrar.IANAID == 950) && (i%replayWindow < 1000 || i%replayWindow > 3000) {
					t.Errorf("%v record at window position %d, want mid-window", k, i%replayWindow)
				}
				if i > 0 && i%replayWindow == 0 && r.Mutation.Kind == registry.MutPurge && records[i-1].Mutation.Kind == registry.MutPurge {
					straddles = true
				}
			}
			if !straddles || len(records) < 3*replayWindow {
				t.Fatalf("history of %d records (purges straddle a window: %v) does not exercise the window loop", len(records), straddles)
			}
			if got := dumpVisible(oracle); got != want || oracle.Generation() != wantGen {
				t.Errorf("record-at-a-time replay differs from the original store (generation %d, want %d)", oracle.Generation(), wantGen)
			}

			for _, parallelism := range []int{1, 8} {
				s2 := newShardedTestStore(8)
				j2, rec := openJournalP(t, s2, dir, parallelism, false)
				if rec.ReplayedRecords != len(records) || j2.LastSeq() != wantSeq {
					t.Errorf("parallelism %d: replayed %d records to seq %d, want %d to %d", parallelism, rec.ReplayedRecords, j2.LastSeq(), len(records), wantSeq)
				}
				if got := dumpVisible(s2); got != want || s2.Generation() != wantGen {
					t.Errorf("parallelism %d: recovery differs from record-at-a-time replay (generation %d, want %d)", parallelism, s2.Generation(), wantGen)
				}
				j2.Close()
			}
		})
	}
}

// TestDeletionsSectionRefusesUnrepresentable: a deletion section whose bytes
// say an instant or a rank the 32-byte event cannot hold is an error, from
// the section decoder and from a restore of a whole, correctly checksummed
// snapshot carrying it — never an event holding something else. The ends of
// both ranges and the zero time decode and re-encode to the same bytes.
func TestDeletionsSectionRefusesUnrepresentable(t *testing.T) {
	for _, e := range deletionEdges {
		t.Run(e.name, func(t *testing.T) {
			body := rawDeletionSection(e.id, e.at, e.rank)
			dels, err := decodeDeletionsSection(body)

			var img snapImage
			s := newShardedTestStore(2)
			s.ReadSnapshot(func(r *registry.SnapshotReader) { img.encode(r, 5, nil, 1) })
			img.secs[len(img.secs)-1] = sealSection(append(newSection(secDeletions, 0), body...))
			path, werr := img.write(t.TempDir())
			if werr != nil {
				t.Fatal(werr)
			}
			data, rerr := os.ReadFile(path)
			if rerr != nil {
				t.Fatal(rerr)
			}
			restored := newShardedTestStore(2)
			_, restoreErr := restoreShipped(restored, data, 0)

			if !e.fits {
				if err == nil || restoreErr == nil {
					t.Fatalf("decoded as %+v (section: %v, restore: %v)", dels, err, restoreErr)
				}
				return
			}
			if err != nil || restoreErr != nil {
				t.Fatalf("section: %v, restore: %v", err, restoreErr)
			}
			if got := appendDeletions(nil, dels); !bytes.Equal(got, body) {
				t.Fatalf("re-encoded to\n%x, want\n%x", got, body)
			}
			if evs := restored.Deletions(simtime.DayOf(e.at)); len(evs) != 1 || !evs[0].Time().Equal(e.at) || evs[0].Rank() != e.rank {
				t.Fatalf("restored archive %+v", evs)
			}
		})
	}
}

// snapFuzzBase builds one pristine v2 snapshot image plus the canonical dump
// of the state it encodes, shared by every FuzzSnapshotDecode execution.
var snapFuzzBase struct {
	once sync.Once
	err  error
	data []byte
	seq  uint64
	dump string
}

func buildSnapFuzzBase() {
	dir, err := os.MkdirTemp("", "dzsnapfuzz")
	if err != nil {
		snapFuzzBase.err = err
		return
	}
	defer os.RemoveAll(dir)
	s := registry.NewStoreWithShards(simtime.NewSimClock(testStart.At(0, 0, 0)), 4)
	s.AddRegistrar(model.Registrar{IANAID: 900, Name: "Fuzz Reg", Service: "svc"})
	for i := 0; i < 30; i++ {
		name := fmt.Sprintf("sf%03d.com", i)
		if i%3 == 0 {
			if _, err := s.SeedAt(name, 900, testStart.At(1, 0, i), testStart.At(2, 0, i), testStart.At(3, 0, i),
				model.StatusPendingDelete, testStart.AddDays(1)); err != nil {
				snapFuzzBase.err = err
				return
			}
		} else if _, err := s.CreateAt(name, 900, 1, testStart.At(4, 0, i)); err != nil {
			snapFuzzBase.err = err
			return
		}
	}
	// One Drop, so the image carries a deletion archive to decode.
	if _, err := registry.NewDropRunner(s, registry.DefaultDropConfig()).Run(testStart.AddDays(1), rand.New(rand.NewSource(1))); err != nil {
		snapFuzzBase.err = err
		return
	}
	sh := captureSharded(s)
	path, err := writeSnapshotV2(dir, 77, []byte("fuzz-app"), &sh, 2)
	if err != nil {
		snapFuzzBase.err = err
		return
	}
	if snapFuzzBase.data, err = os.ReadFile(path); err != nil {
		snapFuzzBase.err = err
		return
	}
	snapFuzzBase.seq = 77
	snapFuzzBase.dump = dumpVisible(s)
}

// FuzzSnapshotDecode corrupts a v2 snapshot image at arbitrary offsets —
// truncation, bit flips — and asserts the restore invariant: verification
// either rejects the image loudly (store untouched), or it accepts and the
// restored store is exactly the original state. Silent partial or divergent
// restores are the bug class this hunts.
func FuzzSnapshotDecode(f *testing.F) {
	f.Add(uint16(0), uint16(0), byte(0))      // pristine: must restore exactly
	f.Add(uint16(0), uint16(0), byte(0x04))   // flip inside the magic
	f.Add(uint16(6), uint16(0), byte(0x02))   // magic becomes DZSNAP1: refused by name
	f.Add(uint16(8), uint16(0), byte(0xff))   // meta section length field
	f.Add(uint16(12), uint16(0), byte(0x80))  // meta section CRC field
	f.Add(uint16(17), uint16(0), byte(0x01))  // meta body
	f.Add(uint16(999), uint16(0), byte(0x40)) // some section body
	f.Add(uint16(0), uint16(1), byte(0))      // truncate the final byte
	f.Add(uint16(0), uint16(200), byte(0))    // torn mid-section
	f.Add(uint16(0), uint16(9999), byte(0))   // truncate to (near) nothing
	f.Add(uint16(6), uint16(0), byte(0x01))   // magic becomes DZSNAP2: the zone count is a trailing byte
	f.Fuzz(func(t *testing.T, off uint16, trunc uint16, flip byte) {
		snapFuzzBase.once.Do(buildSnapFuzzBase)
		if snapFuzzBase.err != nil {
			t.Fatalf("building snapshot fuzz base: %v", snapFuzzBase.err)
		}
		data := append([]byte(nil), snapFuzzBase.data...)
		if trunc > 0 {
			keep := len(data) - int(trunc)
			if keep < 0 {
				keep = 0
			}
			data = data[:keep]
		}
		if flip != 0 && len(data) > 0 {
			data[int(off)%len(data)] ^= flip
		}

		s := registry.NewStoreWithShards(simtime.NewSimClock(testStart.At(0, 0, 0)), 4)
		seq, err := restoreShipped(s, data, 0)
		if err != nil {
			// Loud rejection must leave the store untouched: recovery falls
			// back to an older snapshot assuming exactly that.
			if s.Count() != 0 || s.Generation() != 0 || len(s.Registrars()) != 0 {
				t.Fatalf("rejected snapshot leaked state: count=%d gen=%d regs=%d",
					s.Count(), s.Generation(), len(s.Registrars()))
			}
			return
		}
		if seq != snapFuzzBase.seq {
			t.Fatalf("corrupted snapshot restored with seq %d, want %d", seq, snapFuzzBase.seq)
		}
		if got := dumpVisible(s); got != snapFuzzBase.dump {
			t.Error("corrupted snapshot restored silently wrong state")
		}
	})
}

// TestRestoredNamesShareBlocks: a restore spells each section's names into
// shared 64 KiB blocks. The names it decodes are the encoded ones, and they
// tile at most ⌈bytes/64 KiB⌉ + 1 ranges of memory — each name starts where
// the one before it ends, but at a block boundary — where a string per name
// would leave the allocator's rounding after almost every one. A TLD that
// is not the name's suffix is still refused, with the error it always had.
func TestRestoredNamesShareBlocks(t *testing.T) {
	const n = 12_000
	at := testStart.At(10, 0, 0)
	tlds := []model.TLD{"com", "net", "se"}
	var domains, deleted []string
	dom := newDomainSection(0, n, 0)
	dels := make(map[simtime.Day][]model.DeletionEvent)
	for i := 0; i < n; i++ {
		tld := tlds[i%len(tlds)]
		d := model.Domain{ID: uint64(i + 1), Name: fmt.Sprintf("block%05d.%s", i, tld), TLD: tld, RegistrarID: 900,
			Created: at, Updated: at, Expiry: at.AddDate(1, 0, 0), Status: model.StatusActive}
		dom = appendDomain(dom, &d, []byte("AX-restoredcode"))
		domains = append(domains, d.Name)
		ev, err := model.NewDeletionEvent(uint64(n+i), fmt.Sprintf("gone%05d.%s", i, tld), at, i)
		if err != nil {
			t.Fatal(err)
		}
		day := testStart.AddDays(i % 3)
		dels[day] = append(dels[day], ev)
	}
	for k := range 3 { // the section holds the archive day by day, in day order
		for _, ev := range dels[testStart.AddDays(k)] {
			deleted = append(deleted, ev.Name())
		}
	}

	var got []string
	if err := decodeDomainSection(dom[secHeader+1:], func(chunk []registry.SnapshotDomain) error {
		for _, sd := range chunk {
			if string(sd.Domain.TLD) != sd.Domain.Name[len(sd.Domain.Name)-len(sd.Domain.TLD):] || string(sd.AuthInfo) != "AX-restoredcode" {
				return fmt.Errorf("%s decoded with TLD %q, code %q", sd.Domain.Name, sd.Domain.TLD, sd.AuthInfo)
			}
			got = append(got, sd.Domain.Name)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	checkTiled(t, "domain section", got, domains)

	restored, err := decodeDeletionsSection(appendDeletions(nil, dels))
	if err != nil {
		t.Fatal(err)
	}
	got = got[:0]
	for k := range 3 {
		for _, ev := range restored[testStart.AddDays(k)] {
			got = append(got, ev.Name())
		}
	}
	checkTiled(t, "deletion section", got, deleted)

	// Refusals: the name's TLD is "com", the section says otherwise.
	for _, tld := range []model.TLD{"net", "om", "bad.com", ""} {
		d := model.Domain{ID: 1, Name: "bad.com", TLD: tld, RegistrarID: 900, Created: at, Updated: at, Expiry: at, Status: model.StatusActive}
		sec := appendDomain(newDomainSection(0, 1, 0), &d, nil)
		err := decodeDomainSection(sec[secHeader+1:], newShardedTestStore(2).InstallRestoredDomains)
		want := fmt.Sprintf("registry: restore: registry: registration not representable: %q is not under TLD %q", d.Name, tld)
		if err == nil || err.Error() != want {
			t.Errorf("TLD %q: %v, want %s", tld, err, want)
		}
	}
	ev, err := model.NewDeletionEvent(1, "gone.com", at, 0)
	if err != nil {
		t.Fatal(err)
	}
	body := appendDeletions(nil, map[simtime.Day][]model.DeletionEvent{testStart: {ev}})
	body = bytes.Replace(body, []byte("\x03com"), []byte("\x03net"), 1) // the filed TLD, after the name's bytes
	if _, err := decodeDeletionsSection(body); err == nil || err.Error() != `deletion "gone.com" filed under TLD "net"` {
		t.Errorf("deletion under a foreign TLD: %v", err)
	}
}

// checkTiled fails t unless got equals want and got's names, in order, lie
// in at most ⌈bytes/64 KiB⌉ + 1 runs of memory where each name starts where
// the one before it ends.
func checkTiled(t *testing.T, what string, got, want []string) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Fatalf("%s: decoded %d names, want the %d encoded ones", what, len(got), len(want))
	}
	runs, total := 0, 0
	for i, name := range got {
		if i == 0 || unsafe.StringData(name) != (*byte)(unsafe.Add(unsafe.Pointer(unsafe.StringData(got[i-1])), len(got[i-1]))) {
			runs++
		}
		total += len(name)
	}
	if limit := (total+nameBlockSize-1)/nameBlockSize + 1; runs > limit {
		t.Fatalf("%s: %d names of %d bytes lie in %d runs of memory, want ≤ %d", what, len(got), total, runs, limit)
	}
}
