package sim

import (
	"bytes"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"dropzero/internal/model"
	"dropzero/internal/simtime"
	"dropzero/internal/zone"
)

// bytesPerDeletionBudget is the live-heap ceiling for what a finished study
// holds per deleted name, everything included: the observation row, the
// deletion event, the truth, the claim, the name (once: the row shares the
// event's bytes) and the fixed cost of the directory spread over the run.
// ≈ 138 B measured; the pending-delete list arenas alone, were a row to pin
// them again, are ≈ 17 B more.
const bytesPerDeletionBudget = 150

func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestStudyBytesPerDeletion runs a small memory-only study, holds its Result
// and fails when the live heap per deletion exceeds the budget, so a
// dataset-footprint regression shows up in go test without running the
// benchmark (whose study workload measures the same thing at scale 0.25).
func TestStudyBytesPerDeletion(t *testing.T) {
	if testing.Short() {
		t.Skip("needs a study large enough to amortise the directory")
	}
	cfg := DefaultConfig()
	cfg.Days = 4
	cfg.Scale = 0.1
	before := liveHeap()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	held := float64(liveHeap()) - float64(before)
	deletions := 0
	for _, evs := range res.Deletions {
		deletions += len(evs)
	}
	runtime.KeepAlive(res)
	if deletions < 20_000 || len(res.Observations) < deletions/2 {
		t.Fatalf("study too small to judge: %d deletions, %d observations", deletions, len(res.Observations))
	}
	per := held / float64(deletions)
	t.Logf("%d deletions, %d observations: %.1f B/deletion", deletions, len(res.Observations), per)
	if per > bytesPerDeletionBudget {
		t.Fatalf("a finished study holds %.1f B per deletion, budget %d", per, bytesPerDeletionBudget)
	}
}

// TestResultNamesHeldOnce: every row of a finished study spells its name with
// the very bytes its deletion event holds — at either end of the worker-pool
// range and with extra zones dropping beside the default one — and a row
// that has no event owns its name outright, sharing no list arena with its
// neighbours.
func TestResultNamesHeldOnce(t *testing.T) {
	base := DefaultConfig()
	base.Days = 3
	base.Scale = 0.02
	base.FinalizeAfterDays = 57
	cases := map[string]func(*Config){
		"parallelism1": func(c *Config) { c.Parallelism = 1 },
		"parallelism8": func(c *Config) { c.Parallelism = 8 },
		"extraZones":   func(c *Config) { c.Zones = []zone.Config{nordicTestZone(), shuffleTestZone()} },
	}
	for name, tweak := range cases {
		t.Run(name, func(t *testing.T) {
			cfg := base
			tweak(&cfg)
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			held := make(map[string]*byte)
			for _, evs := range res.Deletions {
				for i := range evs {
					held[evs[i].Name] = unsafe.StringData(evs[i].Name)
				}
			}
			if len(res.Observations) == 0 {
				t.Fatal("no observations")
			}
			for i := range res.Observations {
				o := &res.Observations[i]
				if data, ok := held[o.Name]; !ok || unsafe.StringData(o.Name) != data {
					t.Fatalf("%s: row spelled at %p, event at %p (deleted: %v)", o.Name, unsafe.StringData(o.Name), data, ok)
				}
			}
		})
	}

	t.Run("rowWithoutEvent", func(t *testing.T) {
		// Rows as the pipeline hands them over: names cut from one arena, in
		// name order. Two of the four were deleted.
		arena := strings.Repeat("x", 64) + "a.comb.comc.comd.com"
		day := simtime.Day{Year: 2018, Month: time.January, Dom: 2}
		var obs []model.Observation
		for off := 64; off < len(arena); off += 5 {
			o, err := model.NewObservation(arena[off:off+5], day, model.PriorRegistration{}, nil, false)
			if err != nil {
				t.Fatal(err)
			}
			obs = append(obs, o)
		}
		var evs []model.DeletionEvent
		for rank, name := range []string{"d.com", "zz.net", "b.com"} {
			ev, err := model.NewDeletionEvent(uint64(rank+1), strings.Clone(name), day.At(19, 0, rank), rank)
			if err != nil {
				t.Fatal(err)
			}
			evs = append(evs, ev)
		}
		holdNamesOnce(obs, map[simtime.Day][]model.DeletionEvent{day: evs[:2], day.Next(): evs[2:]})

		inArena := func(s string) bool {
			p, lo := uintptr(unsafe.Pointer(unsafe.StringData(s))), uintptr(unsafe.Pointer(unsafe.StringData(arena)))
			return p >= lo && p < lo+uintptr(len(arena))
		}
		want := []struct {
			name string
			ev   *model.DeletionEvent
		}{{"a.com", nil}, {"b.com", &evs[2]}, {"c.com", nil}, {"d.com", &evs[0]}}
		for i, w := range want {
			got := obs[i].Name
			switch {
			case got != w.name:
				t.Fatalf("row %d is named %q, want %q", i, got, w.name)
			case inArena(got):
				t.Fatalf("%s still points into the list arena", got)
			case w.ev != nil && unsafe.StringData(got) != unsafe.StringData(w.ev.Name):
				t.Fatalf("%s does not share its event's bytes", got)
			}
		}
	})
}

func TestTruthLayout(t *testing.T) {
	if got := unsafe.Sizeof(Truth{}); got > 24 {
		t.Fatalf("Truth is %d bytes, budget 24", got)
	}
}

// TestTruthsJoinDeletions pins the invariant Result documents: Truths[d][k]
// is the truth of Deletions[d][k]. Lengths agree on every day, ranks count
// up from zero through each zone's run, and every claimed truth's name,
// registrar and instant are the re-registration the pipeline measured — at
// either end of the worker-pool range and with extra zones dropping beside
// the default one.
func TestTruthsJoinDeletions(t *testing.T) {
	base := DefaultConfig()
	base.Days = 3
	base.Scale = 0.02
	base.FinalizeAfterDays = 57
	cases := map[string]func(*Config){
		"parallelism1": func(c *Config) { c.Parallelism = 1 },
		"parallelism8": func(c *Config) { c.Parallelism = 8 },
		"extraZones":   func(c *Config) { c.Zones = []zone.Config{nordicTestZone(), shuffleTestZone()} },
	}
	for name, tweak := range cases {
		t.Run(name, func(t *testing.T) {
			cfg := base
			tweak(&cfg)
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Truths) != len(res.Deletions) || len(res.Deletions) != cfg.Days {
				t.Fatalf("%d truth days, %d deletion days, %d study days", len(res.Truths), len(res.Deletions), cfg.Days)
			}
			type truthOf struct {
				day   simtime.Day
				truth Truth
				at    time.Time
			}
			byName := make(map[string]truthOf)
			zoneRuns := 0
			for day, evs := range res.Deletions {
				truths := res.Truths[day]
				if len(truths) != len(evs) || len(evs) == 0 {
					t.Fatalf("%v: %d truths for %d deletions", day, len(truths), len(evs))
				}
				for k, ev := range evs {
					// Ranks restart with each zone's run and count up by one
					// inside it; a single-zone day is one run, 0..n-1.
					switch {
					case ev.Rank() == 0:
						zoneRuns++
					case k == 0 || ev.Rank() != evs[k-1].Rank()+1:
						t.Fatalf("%v: rank %d at index %d follows rank %d", day, ev.Rank(), k, evs[max(k, 1)-1].Rank())
					}
					byName[ev.Name] = truthOf{day, truths[k], ev.Time()}
				}
			}
			if want := cfg.Days * (1 + len(cfg.Zones)); zoneRuns != want {
				t.Fatalf("%d zone runs over %d days and %d zones, want %d", zoneRuns, cfg.Days, 1+len(cfg.Zones), want)
			}
			claimed := 0
			for i := range res.Observations {
				o := &res.Observations[i]
				tr, ok := byName[o.Name]
				if !ok || tr.day != o.DeleteDay() {
					t.Fatalf("%s: measured for %v, deleted %v (found %v)", o.Name, o.DeleteDay(), tr.day, ok)
				}
				// Every truth, claimed or not, is checkable against its row:
				// the seeder placed Created less than a day before the
				// expiry's AgeYears-th anniversary.
				if gap := o.PriorExpiry().AddDate(-tr.truth.AgeYears, 0, 0).Sub(o.PriorCreated()); gap < 0 || gap >= 24*time.Hour {
					t.Fatalf("%s: truth says %d years old, row says created %v, expiry %v",
						o.Name, tr.truth.AgeYears, o.PriorCreated(), o.PriorExpiry())
				}
				c := tr.truth.Claim
				if (c != nil) != o.Reregistered() {
					t.Fatalf("%s: claimed %v, measured re-registration %v", o.Name, c != nil, o.Reregistered())
				}
				if c == nil {
					continue
				}
				claimed++
				if want := simtime.Trunc(tr.at.Add(c.Delay)); o.ReregRegistrar() != c.RegistrarID || !o.ReregTime().Equal(want) {
					t.Fatalf("%s: measured registrar %d at %v, truth registrar %d at %v",
						o.Name, o.ReregRegistrar(), o.ReregTime(), c.RegistrarID, want)
				}
			}
			if claimed == 0 {
				t.Fatal("no claimed name was measured: the join was never checked")
			}
		})
	}
}

// TestZoneDelaysCSVRoundTrip: the interchange file reads back to the rows
// written, and a file whose header is not the format's — in any column — is
// refused rather than read under the wrong column names.
func TestZoneDelaysCSVRoundTrip(t *testing.T) {
	rows := []ZoneDelay{
		{Zone: "default", Policy: zone.PolicyPaced, Name: "a.com", Delay: 0},
		{Zone: "nordic", Policy: zone.PolicyInstant, Name: "b.se", Delay: 90 * time.Minute},
	}
	var buf bytes.Buffer
	if err := WriteZoneDelaysCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	got, err := ReadZoneDelaysCSV(bytes.NewReader(buf.Bytes()))
	if err != nil || !slices.Equal(got, rows) {
		t.Fatalf("read back %v (%v), wrote %v", got, err, rows)
	}
	for _, file := range []string{
		"",
		"default,paced,a.com,0\n",
		"zone,policy,name,delay\ndefault,paced,a.com,0\n",
		"zone,name,policy,delay_seconds\ndefault,a.com,paced,0\n",
	} {
		if _, err := ReadZoneDelaysCSV(strings.NewReader(file)); err == nil {
			t.Errorf("accepted %q", file)
		}
	}
}
