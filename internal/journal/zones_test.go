package journal

import (
	"fmt"
	"testing"

	"dropzero/internal/model"
	"dropzero/internal/zone"
)

func testNordic() zone.Config {
	return zone.Config{
		Name:      "nordic",
		TLDs:      []model.TLD{"se", "nu"},
		Lifecycle: zone.DefaultLifecycleConfig(),
		Drop:      zone.DropConfig{StartHour: 4},
		Policy:    zone.PolicyInstant,
		Salt:      17,
	}
}

// A default-only store writes the same magic as any other, its meta section
// ending in a zone count of 0 — the one byte a DZSNAP2 file lacks.
func TestSnapshotDefaultZoneWritesEmptyZoneTable(t *testing.T) {
	dir := t.TempDir()
	s := newTestStore()
	j, _ := openJournal(t, s, dir, ModeSync, false)
	s.SetJournal(j)
	workout(t, s, 7, 60)
	if err := j.Snapshot(nil); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	path, data := latestSnapshotBytes(t, dir)
	if got := string(data[:len(snapMagic)]); got != snapMagic {
		t.Fatalf("default-only snapshot magic %q, want %q", got, snapMagic)
	}
	sv, err := parseSnapshotV2(data, path)
	if err != nil || sv.meta.zones != nil {
		t.Fatalf("zone table %v (%v), want none", sv.meta.zones, err)
	}
	asV2 := append([]byte(snapMagic2), data[len(snapMagic):]...)
	if _, err := parseSnapshotV2(asV2, path); err == nil {
		t.Fatal("the same sections under the DZSNAP2 magic parsed: the zone count went unnoticed")
	}
}

// A multi-zone store's snapshot alone (empty tail)
// restores the zone table along with the extra zone's domains.
func TestSnapshotMultiZoneV3RoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := newTestStore()
	j, _ := openJournal(t, s, dir, ModeSync, false)
	s.SetJournal(j)
	workout(t, s, 9, 80)
	if err := s.AddZone(testNordic()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := s.CreateAt(fmt.Sprintf("fjord%02d.se", i), 900, 1, testStart.At(10, 0, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Snapshot([]byte("fed-state")); err != nil {
		t.Fatal(err)
	}
	want := dumpVisible(s)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	_, data := latestSnapshotBytes(t, dir)
	if got := string(data[:len(snapMagic)]); got != snapMagic {
		t.Fatalf("multi-zone snapshot magic %q, want %q", got, snapMagic)
	}

	s2 := newTestStore()
	j2, rec := openJournal(t, s2, dir, ModeSync, false)
	defer j2.Close()
	if rec.SnapshotSeq == 0 {
		t.Fatal("recovery did not load the snapshot")
	}
	if string(rec.AppState) != "fed-state" {
		t.Fatalf("app state = %q", rec.AppState)
	}
	z, ok := s2.ZoneByName("nordic")
	if !ok || !z.TLDSet()["se"] || z.Policy != zone.PolicyInstant || z.Salt != 17 {
		t.Fatalf("restored zone = %+v, %v", z, ok)
	}
	if got := dumpVisible(s2); got != want {
		t.Error("v3 snapshot recovery differs from original")
	}
}

// The WAL path: an AddZone in the tail after a default-only snapshot
// must replay through the recovery barrier so the extra zone's creates that
// follow it validate, at every recovery parallelism.
func TestAddZoneReplaysFromWALTail(t *testing.T) {
	dir := t.TempDir()
	s := newTestStore()
	j, _ := openJournal(t, s, dir, ModeSync, true)
	s.SetJournal(j)
	workout(t, s, 11, 60)
	if err := j.Snapshot(nil); err != nil {
		t.Fatal(err)
	}
	// Everything from here on is WAL tail: the zone and its first domains.
	if err := s.AddZone(testNordic()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := s.CreateAt(fmt.Sprintf("tail%03d.nu", i), 901, 1, testStart.At(12, 0, i)); err != nil {
			t.Fatal(err)
		}
	}
	want := dumpVisible(s)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	for _, parallelism := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallelism-%d", parallelism), func(t *testing.T) {
			s2 := newShardedTestStore(4)
			j2, rec := openJournalP(t, s2, dir, parallelism, true)
			defer j2.Close()
			if rec.ReplayedRecords == 0 {
				t.Fatal("no WAL tail replayed")
			}
			if !s2.HostsTLD("nu") {
				t.Fatal("replayed store does not host the added zone's TLD")
			}
			if got := dumpVisible(s2); got != want {
				t.Error("WAL-tail zone recovery differs from original")
			}
		})
	}
}
