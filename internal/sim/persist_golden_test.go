package sim

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"dropzero/internal/binwire"
	"dropzero/internal/inproc"
	"dropzero/internal/measure"
	"dropzero/internal/model"
	"dropzero/internal/rdap"
	"dropzero/internal/registry"
	"dropzero/internal/safebrowsing"
	"dropzero/internal/simtime"
)

// goldenState is a tiny study interrupted after its first day: one snapshot
// checkpoint and one later day record, touching every field the two blobs
// carry — resolved and unresolved entries, a non-.com TLD, every
// counter.
func goldenState() (cp, rec *dayRecord) {
	day := simtime.Day{Year: 2018, Month: time.January, Dom: 4}
	prior := func(id uint64, registrar, offset int) *model.PriorRegistration {
		updated := day.AddDays(-35).At(6, 30, offset)
		return &model.PriorRegistration{
			ID:          id,
			RegistrarID: registrar,
			Created:     updated.AddDate(-2, 0, 0),
			Updated:     updated,
			Expiry:      updated.AddDate(0, 0, -30),
		}
	}
	entry := func(name string, day simtime.Day, prior *model.PriorRegistration) measure.PendingEntry {
		e, err := measure.NewPendingEntry(name, day, prior)
		if err != nil {
			panic(err)
		}
		return e
	}
	cp = &dayRecord{
		Day: 1,
		Delta: measure.CollectDelta{
			Added: []measure.PendingEntry{
				entry("gone.com", day, prior(11, 1000, 0)),
				entry("kept.com", day, prior(12, 1000, 1)),
				entry("other.net", day.Next(), prior(13, 1727, 2)),
				entry("restored.com", day, prior(1, 1000, 3)),
				entry("unresolved.com", day.Next(), nil),
			},
			Stats: measure.Stats{ListEntries: 5, Lookups: 6, RDAPErrors: 1, WHOISFallbacks: 1, FallbackFailed: 1},
		},
	}
	rec = &dayRecord{
		Day: 1,
		Delta: measure.CollectDelta{
			Day:   day.AddDays(-2),
			Added: []measure.PendingEntry{entry("late.com", day.AddDays(2), nil)},
			Resolved: []measure.PendingEntry{
				entry("late.com", day.AddDays(2), prior(14, 1000, 4)),
				entry("unresolved.com", day.Next(), prior(15, 1727, 5)),
			},
			Stats: measure.Stats{ListEntries: 1, Lookups: 2},
		},
	}
	return cp, rec
}

// finishGoldenStudy resumes a pipeline from the two blobs' contents and runs
// the T+8-weeks pass against a registry in which restored.com still is the
// registration first seen, kept.com and late.com have been re-registered
// (late.com flagged by the oracle) and the other names are free.
func finishGoldenStudy(t *testing.T, cp, rec *dayRecord) []byte {
	t.Helper()
	day := simtime.Day{Year: 2018, Month: time.January, Dom: 4}
	clock := simtime.NewSimClock(day.AddDays(-40).At(9, 0, 0))
	store := registry.NewStore(clock)
	for _, id := range []int{1000, 1727, 2000} {
		store.AddRegistrar(model.Registrar{IANAID: id})
	}
	restored := cp.Delta.Added[3].Prior
	if d, err := store.SeedAt("restored.com", restored.RegistrarID, restored.Created, restored.Updated,
		restored.Expiry.AddDate(1, 0, 0), model.StatusActive, simtime.Day{}); err != nil || d.ID != restored.ID {
		t.Fatalf("seed restored.com: %+v, %v", d, err)
	}
	for _, c := range []struct {
		name      string
		registrar int
		at        time.Time
	}{
		{"kept.com", 2000, day.At(19, 0, 7)},
		{"late.com", 1727, day.AddDays(3).At(8, 15, 0)},
	} {
		if _, err := store.CreateAt(c.name, c.registrar, 1, c.at); err != nil {
			t.Fatal(err)
		}
	}
	oracle := safebrowsing.NewOracle()
	oracle.Set("late.com", true)
	rdapClient, err := rdap.NewClient("http://rdap.test", inproc.Client(rdap.NewServer(store, rdap.ServerConfig{}).Handler()))
	if err != nil {
		t.Fatal(err)
	}
	oracleClient, err := safebrowsing.NewClient("http://oracle.test", inproc.Client(oracle.Handler()))
	if err != nil {
		t.Fatal(err)
	}
	pipe := &measure.Pipeline{RDAP: rdapClient, Oracle: oracleClient, TLDFilter: model.COM, Parallelism: 1}
	for _, d := range []*measure.CollectDelta{&cp.Delta, &rec.Delta} {
		if err := pipe.ApplyDelta(d); err != nil {
			t.Fatal(err)
		}
	}
	clock.Set(day.AddDays(60).At(12, 0, 0))
	obs, err := pipe.Finalize(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := measure.WriteCSV(&csv, obs); err != nil {
		t.Fatal(err)
	}
	return csv.Bytes()
}

// TestCheckpointFormatGolden guards the two blobs a study's -datadir holds —
// the snapshot checkpoint and the per-day record — against the dataset's
// in-memory layout and against drift of their own: checkpoint.dzsim and
// dayrecord.dzsim under testdata/ are goldenState as the commit that
// introduced the format wrote it, resumed.csv the dataset the study they
// hold finishes to (written before observations became packed rows, 8376faf,
// and unchanged since). This build must write those bytes, read them back to
// the same state, and finish the study to the same CSV. The .gob files are
// the same state as encoding/gob wrote it until then: refused, by name.
func TestCheckpointFormatGolden(t *testing.T) {
	golden := func(name string) []byte {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	cp, rec := goldenState()

	if got, want := encodeCheckpoint(cp.Day, cp.Delta), golden("checkpoint.dzsim"); !bytes.Equal(got, want) {
		t.Errorf("encodeCheckpoint wrote %d bytes that differ from the %d golden ones", len(got), len(want))
	}
	if got, want := encodeDayRecord(rec), golden("dayrecord.dzsim"); !bytes.Equal(got, want) {
		t.Errorf("encodeDayRecord wrote %d bytes that differ from the %d golden ones", len(got), len(want))
	}

	oldCP, err := decodeCheckpoint(golden("checkpoint.dzsim"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(oldCP, cp) {
		t.Errorf("golden checkpoint decodes to\n%+v\nwant\n%+v", oldCP, cp)
	}
	oldRec, err := decodeDayRecord(golden("dayrecord.dzsim"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(oldRec, rec) {
		t.Errorf("golden day record decodes to\n%+v\nwant\n%+v", oldRec, rec)
	}

	if got, want := finishGoldenStudy(t, oldCP, oldRec), golden("resumed.csv"); !bytes.Equal(got, want) {
		t.Errorf("the resumed study's dataset differs from the parent's:\n%s\nwant:\n%s", got, want)
	}

	for name, decode := range map[string]func([]byte) error{
		"checkpoint.gob": func(b []byte) error { _, err := decodeCheckpoint(b); return err },
		"dayrecord.gob":  func(b []byte) error { _, err := decodeDayRecord(b); return err },
	} {
		if err := decode(golden(name)); err == nil || !strings.Contains(err.Error(), "encoding/gob") || !strings.Contains(err.Error(), "DZSIM1") {
			t.Errorf("%s: %v, want a refusal naming both formats", name, err)
		}
	}
	// One kind is not the other, and a damaged blob is an error, not a state.
	if _, err := decodeCheckpoint(golden("dayrecord.dzsim")); err == nil {
		t.Error("a day record decoded as a checkpoint")
	}
	if _, err := decodeDayRecord(golden("checkpoint.dzsim")); err == nil {
		t.Error("a checkpoint decoded as a day record")
	}
	whole := golden("checkpoint.dzsim")
	for cut := 0; cut < len(whole); cut++ {
		if _, err := decodeCheckpoint(whole[:cut]); err == nil {
			t.Fatalf("checkpoint cut to %d of %d bytes decoded", cut, len(whole))
		}
	}
	if _, err := decodeCheckpoint(append(bytes.Clone(whole), 0)); err == nil {
		t.Error("checkpoint with a trailing byte decoded")
	}
	// An entry's TLD is not free to disagree with its name.
	wrongTLD := bytes.Replace(whole, []byte("gone.com\x03com"), []byte("gone.com\x03net"), 1)
	if bytes.Equal(wrongTLD, whole) {
		t.Fatal("no gone.com entry to change in the golden checkpoint")
	}
	if _, err := decodeCheckpoint(wrongTLD); err == nil || !strings.Contains(err.Error(), "suffix") {
		t.Errorf("checkpoint with gone.com under .net: %v, want a refusal", err)
	}
	// Nor is its delete day free to be one a stored day cannot hold.
	entry := func(day simtime.Day) []byte { return binwire.AppendDay([]byte("gone.com\x03com"), day) }
	badDay := bytes.Replace(whole, entry(simtime.Day{Year: 2018, Month: time.January, Dom: 4}), entry(simtime.Day{Year: 2018, Month: time.January, Dom: 32}), 1)
	if bytes.Equal(badDay, whole) {
		t.Fatal("no gone.com entry to change in the golden checkpoint")
	}
	if _, err := decodeCheckpoint(badDay); err == nil || !strings.Contains(err.Error(), "not representable") {
		t.Errorf("checkpoint with gone.com deleted on 32 January: %v, want a refusal", err)
	}
}
