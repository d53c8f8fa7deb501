package journal

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"dropzero/internal/model"
	"dropzero/internal/registry"
	"dropzero/internal/simtime"
)

// writeSinglePass snapshots s the way Journal.Snapshot does — sections
// encoded straight from the shards — without a journal around it.
func writeSinglePass(t testing.TB, s *registry.Store, dir string, seq uint64, appState []byte, workers int) string {
	t.Helper()
	var img snapImage
	s.ReadSnapshot(func(r *registry.SnapshotReader) { img.encode(r, seq, appState, workers) })
	path, err := img.write(dir)
	if err != nil {
		t.Fatal(err)
	}
	return path
}

// decodedSnapshot is a snapshot file decoded without a store in between:
// the meta section, every registration by name, the deletion archive.
type decodedSnapshot struct {
	magic     string
	meta      snapMeta
	domains   map[string]registry.SnapshotDomain
	deletions map[simtime.Day][]model.DeletionEvent
}

func decodeSnapshotFile(t *testing.T, path string) decodedSnapshot {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sv, err := parseSnapshotV2(data, path)
	if err != nil {
		t.Fatal(err)
	}
	ds := decodedSnapshot{
		magic:     string(data[:len(snapMagic)]),
		meta:      sv.meta,
		domains:   make(map[string]registry.SnapshotDomain),
		deletions: make(map[simtime.Day][]model.DeletionEvent),
	}
	for i, body := range sv.domains {
		err := decodeDomainSection(body, func(chunk []registry.SnapshotDomain) error {
			for _, sd := range chunk {
				if _, dup := ds.domains[sd.Domain.Name]; dup {
					return fmt.Errorf("%s encoded twice", sd.Domain.Name)
				}
				ds.domains[sd.Domain.Name] = sd
			}
			return nil
		})
		if err != nil {
			t.Fatalf("domain section %d: %v", i, err)
		}
	}
	for i, body := range sv.deletion {
		dels, err := decodeDeletionsSection(body)
		if err != nil {
			t.Fatalf("deletion section %d: %v", i, err)
		}
		for day, evs := range dels {
			ds.deletions[day] = append(ds.deletions[day], evs...)
		}
	}
	return ds
}

// TestSnapshotSinglePassDifferential: the file Journal.Snapshot's single
// pass produces must decode to exactly what the materialising writer's
// does — every field of every registration, every transfer code in each of
// its states (none, derived, rotated by a transfer, stored verbatim), the
// archive, the zone table and the counters — on one worker or several.
// Both files go through the same decoder, so the comparison is
// representation-free.
func TestSnapshotSinglePassDifferential(t *testing.T) {
	src := newShardedTestStore(4)
	workout(t, src, 41, 240) // .com: seeds, creates, transfers, purges
	if err := src.AddZone(testNordic()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		for _, tld := range []string{"net", "se", "nu"} {
			if _, err := src.CreateAt(fmt.Sprintf("sp%02d.%s", i, tld), 900+i%5, 1, testStart.At(11, i, 0)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 10; i++ {
		name := fmt.Sprintf("sp%02d.se", i)
		code, err := src.AuthInfo(name, 900+i%5)
		if err != nil {
			t.Fatal(err)
		}
		if err := src.Transfer(name, 900+(i+1)%5, code); err != nil {
			t.Fatal(err)
		}
	}
	// Two codes of foreign make — the stored state — enter through restore.
	foreign := map[string]string{"sp20.nu": "legacy-code-a", "sp21.net": "legacy-code-b"}
	captured := captureSharded(src)
	for si := range captured.Shards {
		for k := range captured.Shards[si] {
			if code, ok := foreign[captured.Shards[si][k].Domain.Name]; ok {
				captured.Shards[si][k].AuthInfo = []byte(code)
			}
		}
	}
	staged, err := writeSnapshotV2(t.TempDir(), 1, nil, &captured, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := newShardedTestStore(8)
	if _, found, err := restoreLatestSnapshot(s, filepath.Dir(staged), 1); err != nil || !found {
		t.Fatalf("staging restore: found %v, %v", found, err)
	}

	const seq = 9001
	appState := []byte("single-pass")
	oracle := captureSharded(s)
	oraclePath, err := writeSnapshotV2(t.TempDir(), seq, appState, &oracle, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := decodeSnapshotFile(t, oraclePath)

	// The oracle itself must carry what the test is about.
	var seeded, derived, rotated, stored int
	tlds := map[model.TLD]bool{}
	for name, sd := range want.domains {
		tlds[sd.Domain.TLD] = true
		code, err := s.AuthInfo(name, sd.Domain.RegistrarID)
		if err != nil || code != string(sd.AuthInfo) {
			t.Fatalf("%s: oracle carries code %q, store answers %q (%v)", name, sd.AuthInfo, code, err)
		}
		switch {
		case len(sd.AuthInfo) == 0:
			seeded++
		case foreign[name] != "":
			stored++
		case name[:2] == "sp" && sd.Domain.TLD == "se" && name < "sp10":
			rotated++
		default:
			derived++
		}
	}
	if seeded == 0 || derived == 0 || rotated != 10 || stored != 2 || len(tlds) < 4 {
		t.Fatalf("oracle covers seeded=%d derived=%d rotated=%d stored=%d tlds=%v", seeded, derived, rotated, stored, tlds)
	}
	if len(want.domains) != s.Count() || len(want.deletions) == 0 || len(want.meta.zones) != 1 || want.magic != snapMagic {
		t.Fatalf("oracle: %d of %d domains, %d archive days, %d zones, magic %q",
			len(want.domains), s.Count(), len(want.deletions), len(want.meta.zones), want.magic)
	}
	wantSize := fileSize(t, oraclePath)
	if sameArchive(want.deletions, renamedPastFirstByte(t, want.deletions)) {
		t.Fatal("the archive comparison misses a name that differs past its first byte")
	}

	for _, tc := range []struct {
		name    string
		workers int
	}{
		{"1worker", 1},
		{"4workers", 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := writeSinglePass(t, s, t.TempDir(), seq, appState, tc.workers)
			got := decodeSnapshotFile(t, path)
			if got.magic != want.magic {
				t.Errorf("magic %q, want %q", got.magic, want.magic)
			}
			if !reflect.DeepEqual(got.meta, want.meta) {
				t.Errorf("meta section differs:\n got %+v\nwant %+v", got.meta, want.meta)
			}
			if len(got.domains) != len(want.domains) {
				t.Errorf("%d registrations, want %d", len(got.domains), len(want.domains))
			}
			for name, w := range want.domains {
				if g, ok := got.domains[name]; !ok || !reflect.DeepEqual(g, w) {
					t.Errorf("%s differs:\n got %+v\nwant %+v", name, g, w)
				}
			}
			if !sameArchive(got.deletions, want.deletions) {
				t.Error("deletion archive differs")
			}
			// Same records under the same codec: the sections may list them
			// in another order, never in another number of bytes.
			if size := fileSize(t, path); size != wantSize {
				t.Errorf("file is %d bytes, the materialising writer's %d", size, wantSize)
			}

			restored := newShardedTestStore(2)
			if rec, found, err := restoreLatestSnapshot(restored, filepath.Dir(path), 2); err != nil || !found || rec.SnapshotSeq != seq {
				t.Fatalf("restore: %+v, %v", rec, err)
			}
			if dumpVisible(restored) != dumpVisible(s) {
				t.Error("restored store differs from the snapshotted one")
			}
		})
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestSnapshotTransientBudget: a snapshot may allocate little more than its
// own encoded size — no copy of the store, no object per registration. The
// store is 100k names in dropbench's recovery mix (seeded, nine active to
// one in redemption, no transfer codes) and again as EPP creates, whose
// derived codes make every record 15 bytes longer.
func TestSnapshotTransientBudget(t *testing.T) {
	const (
		n              = 100_000
		maxBytesPerReg = 96
	)
	now := testStart.At(9, 0, 0)
	mixes := []struct {
		name string
		add  func(s *registry.Store, name string, i int) error
	}{
		{"seeded", func(s *registry.Store, name string, i int) error {
			created := now.AddDate(-1-i%5, 0, -(i % 300))
			var err error
			if i%10 == 9 {
				updated := now.AddDate(0, 0, -(i % 40))
				_, err = s.SeedAt(name, 900, created, updated, updated.AddDate(0, 0, -35), model.StatusRedemption, simtime.Day{})
			} else {
				_, err = s.SeedAt(name, 900, created, created, created.AddDate(1+i%6, 0, 0), model.StatusActive, simtime.Day{})
			}
			return err
		}},
		{"created", func(s *registry.Store, name string, i int) error {
			_, err := s.CreateAt(name, 900, 1+i%3, now)
			return err
		}},
	}
	for _, mix := range mixes {
		for _, shards := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s-%dshards", mix.name, shards), func(t *testing.T) {
				s := newShardedTestStore(shards)
				s.AddRegistrar(model.Registrar{IANAID: 900, Name: "Budget Reg"})
				for i := 0; i < n; i++ {
					if err := mix.add(s, fmt.Sprintf("transient-budget%06d.com", i), i); err != nil {
						t.Fatal(err)
					}
				}
				j, _, err := Open(s, Options{Dir: t.TempDir(), Mode: ModeSync})
				if err != nil {
					t.Fatal(err)
				}
				defer j.Close()

				runtime.GC()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				if err := j.Snapshot(nil); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)

				perReg := float64(after.TotalAlloc-before.TotalAlloc) / n
				objects := after.Mallocs - before.Mallocs
				_, data := latestSnapshotBytes(t, j.Dir())
				t.Logf("%.1f B and %.4f objects allocated per registration (%d objects); file %.1f B/registration",
					perReg, float64(objects)/n, objects, float64(len(data))/n)
				if perReg > maxBytesPerReg {
					t.Errorf("snapshot allocated %.1f B/registration, budget %d", perReg, maxBytesPerReg)
				}
				if limit := uint64(200 + 16*shards); objects > limit {
					t.Errorf("snapshot allocated %d objects for %d registrations on %d shards, want O(shards) (≤ %d)", objects, n, shards, limit)
				}
			})
		}
	}
}

// TestSnapshotSectionSizedOnce: a domain section is appended to the one
// buffer it was sized for, on the store shape that defeats sizing from the
// oldest registrations — object IDs and numbered names that grow in insertion
// order, which is what dropbench builds and what a registry accumulates. A
// section that outgrew its first buffer shows twice: the encode allocated
// about two sections' worth, and append's growth left the final buffer far
// roomier than the few percent sizing adds.
func TestSnapshotSectionSizedOnce(t *testing.T) {
	const n = 100_000
	now := testStart.At(9, 0, 0)
	for _, shards := range []int{1, 8} {
		t.Run(fmt.Sprintf("%dshards", shards), func(t *testing.T) {
			s := newShardedTestStore(shards)
			s.AddRegistrar(model.Registrar{IANAID: 900, Name: "Sizing Reg"})
			for i := 0; i < n; i++ {
				if _, err := s.CreateAt(fmt.Sprintf("sized-once-%d.com", i), 900, 1, now); err != nil {
					t.Fatal(err)
				}
			}
			var img snapImage
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			s.ReadSnapshot(func(r *registry.SnapshotReader) { img.encode(r, 1, nil, shards) })
			runtime.ReadMemStats(&after)

			encoded := 0
			for i, sec := range img.secs[:shards] {
				encoded += len(sec)
				if cap(sec) > len(sec)+len(sec)/16 {
					t.Errorf("section %d: %d bytes in a buffer of %d — regrown, not sized", i, len(sec), cap(sec))
				}
			}
			if allocated := int(after.TotalAlloc - before.TotalAlloc); allocated > encoded+encoded/8 {
				t.Errorf("encoding %d section bytes allocated %d", encoded, allocated)
			}
		})
	}
}

// sameArchive reports whether two deletion archives hold the same events,
// day by day and in the same order.
func sameArchive(a, b map[simtime.Day][]model.DeletionEvent) bool {
	return maps.EqualFunc(a, b, func(x, y []model.DeletionEvent) bool {
		return slices.EqualFunc(x, y, model.DeletionEvent.Equal)
	})
}

// renamedPastFirstByte is a copy of dels in which the first event of the
// earliest day is named as before except for the name's last byte: a
// comparison of deletion logs must tell the two apart.
func renamedPastFirstByte(t *testing.T, dels map[simtime.Day][]model.DeletionEvent) map[simtime.Day][]model.DeletionEvent {
	t.Helper()
	var first simtime.Day
	for d, evs := range dels {
		if len(evs) > 0 && (first == (simtime.Day{}) || d.Before(first)) {
			first = d
		}
	}
	if first == (simtime.Day{}) {
		t.Fatal("no deletion to rename")
	}
	evs := slices.Clone(dels[first])
	name := []byte(evs[0].Name())
	name[len(name)-1] ^= 1
	renamed, err := model.NewDeletionEvent(evs[0].DomainID(), string(name), evs[0].Time(), evs[0].Rank())
	if err != nil {
		t.Fatal(err)
	}
	evs[0] = renamed
	out := maps.Clone(dels)
	out[first] = evs
	return out
}
