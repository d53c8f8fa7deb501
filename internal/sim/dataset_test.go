package sim

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"dropzero/internal/journal"
	"dropzero/internal/model"
	"dropzero/internal/registrars"
	"dropzero/internal/simtime"
	"dropzero/internal/zone"
)

// bytesPerDeletionBudget is the live-heap ceiling for what a finished study
// holds per deleted name, everything included: the observation row, the
// deletion event, the truth (the claim folded in), the name (once: the row
// shares the event's bytes, and those are a slice of the seeder's arena for
// the day) and the fixed cost of the directory spread over the run. ≈ 99 B
// measured: 40 a row (for the 93 % of deletions that are .com), 24 an event,
// 16 a truth, ≈ 17 of name bytes.
const bytesPerDeletionBudget = 108

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
	res := run(t, cfg)
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

// datasetStudies are the small memory-only studies the layout tests below
// each run: either end of the worker-pool range, and two extra zones dropping
// beside the default one.
func datasetStudies() map[string]Config {
	seq := DefaultConfig()
	seq.Days = 3
	seq.Scale = 0.02
	seq.FinalizeAfterDays = 57
	seq.Parallelism = 1
	par8, zones := seq, seq
	par8.Parallelism = 8
	zones.Parallelism = 0
	zones.Zones = []zone.Config{nordicTestZone(), shuffleTestZone()}
	return map[string]Config{"parallelism1": seq, "parallelism8": par8, "federated": zones}
}

// TestResultNamesHeldOnce: every row of a finished study spells its name with
// the very bytes its deletion event holds — at either end of the worker-pool
// range, with extra zones dropping beside the default one, and resumed after
// a crash, when the pipeline's names come out of the journal — and a row
// that has no event owns its name outright, sharing no list arena with its
// neighbours.
func TestResultNamesHeldOnce(t *testing.T) {
	heldOnce := func(t *testing.T, res *Result) {
		t.Helper()
		held := make(map[string]*byte)
		for _, evs := range res.Deletions {
			for i := range evs {
				held[evs[i].Name()] = unsafe.StringData(evs[i].Name())
			}
		}
		if len(res.Observations) == 0 {
			t.Fatal("no observations")
		}
		for i := range res.Observations {
			o := &res.Observations[i]
			if data, ok := held[o.Name()]; !ok || unsafe.StringData(o.Name()) != data {
				t.Fatalf("%s: row spelled at %p, event at %p (deleted: %v)", o.Name(), unsafe.StringData(o.Name()), data, ok)
			}
		}
	}
	for name, cfg := range datasetStudies() {
		t.Run(name, func(t *testing.T) {
			res := study(t, name, cfg)
			heldOnce(t, res)
		})
	}

	t.Run("resumed", func(t *testing.T) {
		// A crash under DataDir after the first day's Drop: the resume
		// restores that day's collection from the WAL.
		cfg := datasetStudies()["parallelism1"]
		cfg.DataDir = filepath.Join(t.TempDir(), "ref")
		cfg.Durability = journal.ModeAsync
		cfg.keepCheckpoints = true
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		records, err := journal.Scan(cfg.DataDir, 0)
		if err != nil {
			t.Fatal(err)
		}
		var cut uint64 // the last record before day 1's collection
		for _, r := range records {
			if r.App != nil {
				rec, err := decodeDayRecord(r.App)
				if err != nil {
					t.Fatal(err)
				}
				if rec.Day == 1 {
					break
				}
			}
			cut = r.Seq
		}
		crashDir := filepath.Join(t.TempDir(), "crash")
		if err := journal.CrashCopy(cfg.DataDir, crashDir, cut, 0); err != nil {
			t.Fatal(err)
		}
		cfg.DataDir = crashDir
		res := run(t, cfg)
		if res.Recovered.Fresh() {
			t.Fatal("the resume recovered nothing")
		}
		heldOnce(t, res)
	})

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
		if err := holdNamesOnce(obs, map[simtime.Day][]model.DeletionEvent{day: evs[:2], day.Next(): evs[2:]}); err != nil {
			t.Fatal(err)
		}

		inArena := func(s string) bool {
			p, lo := uintptr(unsafe.Pointer(unsafe.StringData(s))), uintptr(unsafe.Pointer(unsafe.StringData(arena)))
			return p >= lo && p < lo+uintptr(len(arena))
		}
		want := []struct {
			name string
			ev   *model.DeletionEvent
		}{{"a.com", nil}, {"b.com", &evs[2]}, {"c.com", nil}, {"d.com", &evs[0]}}
		for i, w := range want {
			got := obs[i].Name()
			switch {
			case got != w.name:
				t.Fatalf("row %d is named %q, want %q", i, got, w.name)
			case inArena(got):
				t.Fatalf("%s still points into the list arena", got)
			case w.ev != nil && unsafe.StringData(got) != unsafe.StringData(w.ev.Name()):
				t.Fatalf("%s does not share its event's bytes", got)
			}
		}
	})
}

// TestSeededNamesOneAllocationPerDay: the seeder spells a day's names into
// one string per zone, and that is the string the store, the deletion events
// and so the dataset rows go on to hold — the names a zone deleted on one day
// tile one range of memory exactly, with no allocator rounding between them.
// Separately allocated names (the parent's) leave gaps and fail the equality.
func TestSeededNamesOneAllocationPerDay(t *testing.T) {
	for name, cfg := range datasetStudies() {
		t.Run(name, func(t *testing.T) {
			res := study(t, name, cfg)
			zoneOf := make(map[model.TLD]string)
			for _, z := range res.Zones {
				for _, tld := range z.TLDs {
					zoneOf[tld] = z.Name
				}
			}
			type span struct {
				lo, hi uintptr // the range the names cover
				bytes  uintptr // the bytes they spell
				names  int
			}
			for day, evs := range res.Deletions {
				spans := make(map[string]*span)
				for i := range evs {
					name := evs[i].Name()
					lo := uintptr(unsafe.Pointer(unsafe.StringData(name)))
					sp := spans[zoneOf[evs[i].TLD()]]
					if sp == nil {
						sp = &span{lo: lo, hi: lo}
						spans[zoneOf[evs[i].TLD()]] = sp
					}
					sp.lo, sp.hi = min(sp.lo, lo), max(sp.hi, lo+uintptr(len(name)))
					sp.bytes += uintptr(len(name))
					sp.names++
				}
				if len(spans) != len(res.Zones) {
					t.Fatalf("%v: deletions in %d zones of %d", day, len(spans), len(res.Zones))
				}
				for zn, sp := range spans {
					if sp.names < 100 || sp.hi-sp.lo != sp.bytes {
						t.Fatalf("%v, zone %q: %d names of %d bytes spread over %d bytes of memory",
							day, zn, sp.names, sp.bytes, sp.hi-sp.lo)
					}
				}
			}
		})
	}
}

// TestTruthLayout: a truth is 16 bytes and holds no pointer at any depth, so
// a day's []Truth is memory the collector never scans.
func TestTruthLayout(t *testing.T) {
	if got := unsafe.Sizeof(Truth{}); got > 16 {
		t.Fatalf("Truth is %d bytes, budget 16", got)
	}
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		default:
			t.Errorf("%s is a %v: a pointer word", path, typ.Kind())
		}
	}
	walk("Truth", reflect.TypeOf(Truth{}))
}

// TestTruthRoundTrip: the accessors return what newTruth was given at both
// ends of every field, and what a field cannot hold exactly is an error
// naming the deletion — never a wrapped or clamped value.
func TestTruthRoundTrip(t *testing.T) {
	horizon := registrars.DefaultMarketConfig().Horizon
	claim := func(registrar int, delay time.Duration) *registrars.Claim {
		return &registrars.Claim{Service: registrars.SvcDropCatch, RegistrarID: registrar, Delay: delay}
	}
	for _, c := range []struct {
		value float64
		age   int
		claim *registrars.Claim
	}{
		{0, 0, nil},
		{0.37, 1, nil},
		{1, 255, nil},
		{0.5, 3, claim(1, 0)},
		{0.5, 3, claim(1355, 3*time.Second)},
		{0.5, 15, claim(65535, horizon)},
		{0.5, 255, claim(9999, (1<<32-1)*time.Second)},
	} {
		tr, err := newTruth("a.com", c.value, c.age, c.claim)
		if err != nil {
			t.Fatalf("newTruth(%v, %d, %+v): %v", c.value, c.age, c.claim, err)
		}
		registrar, delay, ok := tr.Claim()
		if tr.Value != c.value || tr.AgeYears() != c.age || ok != (c.claim != nil) {
			t.Fatalf("truth of (%v, %d, %+v) reads value %v, age %d, claimed %v", c.value, c.age, c.claim, tr.Value, tr.AgeYears(), ok)
		}
		if c.claim == nil {
			if registrar != 0 || delay != 0 || tr != (Truth{Value: c.value, age: uint8(c.age)}) {
				t.Fatalf("unclaimed truth carries registrar %d, delay %v", registrar, delay)
			}
			continue
		}
		if registrar != c.claim.RegistrarID || delay != c.claim.Delay {
			t.Fatalf("claim %+v reads back as registrar %d after %v", c.claim, registrar, delay)
		}
		if again, err := newTruth("a.com", tr.Value, tr.AgeYears(), claim(registrar, delay)); err != nil || again != tr {
			t.Fatalf("a truth rebuilt from its own accessors differs: %+v, %v", again, err)
		}
	}
	for name, c := range map[string]struct {
		age   int
		claim *registrars.Claim
	}{
		"age 256":                  {256, nil},
		"age -1":                   {-1, nil},
		"registrar 0 with a claim": {1, claim(0, 0)},
		"registrar 65 536":         {1, claim(65536, 0)},
		"registrar -1":             {1, claim(-1, 0)},
		"a 1 ns delay":             {1, claim(1000, 1)},
		"a delay of 1 s + 1 ns":    {1, claim(1000, time.Second+1)},
		"a delay of 2^32 s":        {1, claim(1000, (1<<32)*time.Second)},
		"a delay of -1 s":          {1, claim(1000, -time.Second)},
	} {
		tr, err := newTruth("refused.com", 0.5, c.age, c.claim)
		if err == nil {
			t.Errorf("%s: accepted as %+v", name, tr)
		} else if !strings.Contains(err.Error(), "refused.com") {
			t.Errorf("%s: error %q does not name the deletion", name, err)
		}
	}
}

// TestTruthsJoinDeletions pins the invariant Result documents: Truths[d][k]
// is the truth of Deletions[d][k]. Lengths agree on every day, ranks count
// up from zero through each zone's run, every claimed truth's name,
// registrar and instant are the re-registration the pipeline measured, and
// every truth is the decision a market on the same stream makes again for
// the same lots — registrar, delay, and the claiming service, which a Truth
// does not store, as Directory.ServiceOf of its registrar — at either end of
// the worker-pool range and with extra zones dropping beside the default one.
func TestTruthsJoinDeletions(t *testing.T) {
	for name, cfg := range datasetStudies() {
		t.Run(name, func(t *testing.T) {
			res := study(t, name, cfg)
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
					byName[ev.Name()] = truthOf{day, truths[k], ev.Time()}
				}
			}
			if want := cfg.Days * (1 + len(cfg.Zones)); zoneRuns != want {
				t.Fatalf("%d zone runs over %d days and %d zones, want %d", zoneRuns, cfg.Days, 1+len(cfg.Zones), want)
			}
			claimed := 0
			for i := range res.Observations {
				o := &res.Observations[i]
				tr, ok := byName[o.Name()]
				if !ok || tr.day != o.DeleteDay() {
					t.Fatalf("%s: measured for %v, deleted %v (found %v)", o.Name(), o.DeleteDay(), tr.day, ok)
				}
				// Every truth, claimed or not, is checkable against its row:
				// the seeder placed Created less than a day before the
				// expiry's AgeYears-th anniversary.
				if gap := o.PriorExpiry().AddDate(-tr.truth.AgeYears(), 0, 0).Sub(o.PriorCreated()); gap < 0 || gap >= 24*time.Hour {
					t.Fatalf("%s: truth says %d years old, row says created %v, expiry %v",
						o.Name(), tr.truth.AgeYears(), o.PriorCreated(), o.PriorExpiry())
				}
				registrar, delay, ok := tr.truth.Claim()
				if ok != o.Reregistered() {
					t.Fatalf("%s: claimed %v, measured re-registration %v", o.Name(), ok, o.Reregistered())
				}
				if !ok {
					continue
				}
				claimed++
				if want := simtime.Trunc(tr.at.Add(delay)); o.ReregRegistrar() != registrar || !o.ReregTime().Equal(want) {
					t.Fatalf("%s: measured registrar %d at %v, truth registrar %d at %v",
						o.Name(), o.ReregRegistrar(), o.ReregTime(), registrar, want)
				}
			}
			if claimed == 0 {
				t.Fatal("no claimed name was measured: the join was never checked")
			}

			// The market's decisions, made again: one market per zone on the
			// stream Run gave it, fed each zone's run of lots in Run's order.
			defMarket := registrars.NewMarket(res.Directory, cfg.Market, rand.New(rand.NewSource(cfg.Seed+11)))
			markets := map[model.TLD]*registrars.Market{model.COM: defMarket, model.NET: defMarket}
			for zi, z := range cfg.Zones {
				m := registrars.NewMarket(res.Directory, cfg.Market, rand.New(rand.NewSource(cfg.Seed+zoneSeedStride*int64(zi+1)+11)))
				for _, tld := range z.TLDs {
					markets[tld] = m
				}
			}
			services := make(map[string]int)
			day := cfg.StartDay
			for range cfg.Days {
				evs, truths := res.Deletions[day], res.Truths[day]
				for first := 0; first < len(evs); {
					end := first + 1
					for end < len(evs) && evs[end].Rank() != 0 {
						end++
					}
					for k := first; k < end; k++ {
						want := markets[evs[k].TLD()].Decide(registrars.Lot{
							Name:      evs[k].Name(),
							Value:     truths[k].Value,
							AgeYears:  truths[k].AgeYears(),
							DeletedAt: evs[k].Time(),
							DropEnd:   evs[end-1].Time(),
						})
						registrar, delay, ok := truths[k].Claim()
						if ok != (want != nil) {
							t.Fatalf("%s: truth claimed %v, the market decides %+v", evs[k].Name(), ok, want)
						}
						if !ok {
							continue
						}
						if registrar != want.RegistrarID || delay != want.Delay {
							t.Fatalf("%s: truth registrar %d after %v, the market decides %+v", evs[k].Name(), registrar, delay, want)
						}
						if svc := res.Directory.ServiceOf(registrar); svc != want.Service {
							t.Fatalf("%s: registrar %d belongs to %q, the market claimed for %q", evs[k].Name(), registrar, svc, want.Service)
						}
						services[want.Service]++
					}
					first = end
				}
				day = day.Next()
			}
			if len(services) < 4 {
				t.Fatalf("claims for %v only: the service check saw too little of the market", services)
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
