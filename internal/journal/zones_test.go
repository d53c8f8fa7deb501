package journal

import (
	"encoding/binary"
	"fmt"
	"os"
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
	s, j, _ := journaled(t, dir, 0, Options{Mode: ModeSync})
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
	s, j, _ := journaled(t, dir, 0, Options{Mode: ModeSync})
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
	s2, j2, rec := reopened(t, s, j, dir, 0, Options{Mode: ModeSync})
	defer j2.Close()
	_, data := latestSnapshotBytes(t, dir)
	if got := string(data[:len(snapMagic)]); got != snapMagic {
		t.Fatalf("multi-zone snapshot magic %q, want %q", got, snapMagic)
	}
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
}

// The WAL path: an AddZone in the tail after a default-only snapshot
// must replay through the recovery barrier so the extra zone's creates that
// follow it validate, at every recovery parallelism.
func TestAddZoneReplaysFromWALTail(t *testing.T) {
	dir := t.TempDir()
	s, j, _ := journaled(t, dir, 0, Options{Mode: ModeSync, KeepAll: true})
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
	want := closeJournal(t, s, j)

	for _, parallelism := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallelism-%d", parallelism), func(t *testing.T) {
			s2, j2, rec := journaled(t, dir, 4, Options{Mode: ModeSync, KeepAll: true, RecoveryParallelism: parallelism})
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

// A snapshot whose meta section carries a zone AddZone would refuse — the
// file's CRCs all hold, its zone's drop starts at hour 99 — fails recovery
// instead of installing the zone.
func TestSnapshotWithInvalidZoneFailsOpen(t *testing.T) {
	dir := t.TempDir()
	s, j, _ := journaled(t, dir, 0, Options{Mode: ModeSync})
	workout(t, s, 9, 20)
	if err := s.AddZone(testNordic()); err != nil {
		t.Fatal(err)
	}
	if err := j.Snapshot(nil); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	path, data := latestSnapshotBytes(t, dir)
	sv, err := parseSnapshotV2(data, path)
	if err != nil || len(sv.meta.zones) != 1 {
		t.Fatalf("snapshot zones %+v (%v), want nordic", sv.meta.zones, err)
	}
	sv.meta.zones[0].Drop.StartHour = 99
	meta := sealSection(appendMeta(newSection(secMeta, 0), &sv.meta))
	rest := data[len(snapMagic)+secHeader+int(binary.LittleEndian.Uint32(data[len(snapMagic):])):]
	spoiled := append(append([]byte(snapMagic), meta...), rest...)
	if _, err := parseSnapshotV2(spoiled, path); err != nil {
		t.Fatalf("re-sealed snapshot does not parse: %v", err)
	}
	if err := os.WriteFile(path, spoiled, 0o644); err != nil {
		t.Fatal(err)
	}
	if j, _, err := Open(newTestStore(), Options{Dir: dir, Mode: ModeSync}); err == nil {
		j.Close()
		t.Fatal("recovery installed a snapshot zone whose drop starts at hour 99")
	}
}
