package registry

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"dropzero/internal/model"
	"dropzero/internal/simtime"
)

// seedPending inserts n pendingDelete domains for day with randomised update
// times (batched per registrar) and returns the store.
func seedPending(t *testing.T, n int, day simtime.Day, rng *rand.Rand) *Store {
	t.Helper()
	s := NewStore(testClock())
	for r := 0; r < 10; r++ {
		s.AddRegistrar(model.Registrar{IANAID: 1000 + r, Name: fmt.Sprintf("R%d", r)})
	}
	updatedDay := day.AddDays(-35)
	for i := 0; i < n; i++ {
		reg := 1000 + rng.Intn(10)
		// Batch: registrar's update lands at one specific second.
		updated := updatedDay.At(6, reg%60, (reg*7)%60)
		created := updated.AddDate(-1-rng.Intn(5), 0, 0)
		name := fmt.Sprintf("pd%04d.com", i)
		if rng.Intn(10) == 0 {
			name = fmt.Sprintf("pd%04d.net", i)
		}
		if _, err := s.SeedAt(name, reg, created, updated, updated.AddDate(0, 0, -30), model.StatusPendingDelete, day); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestBuildQueueOrder(t *testing.T) {
	day := simtime.Day{Year: 2018, Month: time.January, Dom: 20}
	rng := rand.New(rand.NewSource(1))
	s := seedPending(t, 500, day, rng)
	q := NewDropRunner(s, DefaultDropConfig()).BuildQueue(day)
	if len(q) != 500 {
		t.Fatalf("queue length = %d", len(q))
	}
	for i := 1; i < len(q); i++ {
		a, b := q[i-1], q[i]
		if b.Updated.Before(a.Updated) {
			t.Fatalf("queue not sorted by update time at %d", i)
		}
		if a.Updated.Equal(b.Updated) && b.ID < a.ID {
			t.Fatalf("tie not broken by ID at %d", i)
		}
	}
}

// TestBuildQueueMatchesRecordSort holds BuildQueue's packed-key sort to the
// record sort it replaced — records ordered by (updated, ID) — on stores
// where each of ten update instants is shared by ≈ 300 names, seeded in
// random order so that IDs do not follow the names, .com and .net mixed.
func TestBuildQueueMatchesRecordSort(t *testing.T) {
	day := simtime.Day{Year: 2018, Month: time.January, Dom: 20}
	for _, shards := range []int{1, 8} {
		rng := rand.New(rand.NewSource(int64(shards)))
		s := NewStoreWithShards(testClock(), shards)
		s.AddRegistrar(model.Registrar{IANAID: 1000, Name: "R"})
		for _, i := range rng.Perm(3000) {
			updated := day.AddDays(-35).At(6, 0, rng.Intn(10))
			name := fmt.Sprintf("tie%04d.%s", i, []string{"com", "net"}[rng.Intn(2)])
			if _, err := s.SeedAt(name, 1000, updated.AddDate(-1, 0, 0), updated, updated.AddDate(0, 0, -30), model.StatusPendingDelete, day); err != nil {
				t.Fatal(err)
			}
		}
		runner := NewDropRunner(s, DefaultDropConfig())
		recs := slices.DeleteFunc(s.pendingOn(day), func(rec record) bool { return !runner.inScope(rec.tld()) })
		slices.SortFunc(recs, func(a, b record) int {
			return cmp.Or(cmp.Compare(a.updated, b.updated), cmp.Compare(a.id, b.id))
		})
		q := runner.BuildQueue(day)
		if len(q) != len(recs) || len(q) != 3000 {
			t.Fatalf("shards=%d: queue of %d, record sort of %d, want 3000", shards, len(q), len(recs))
		}
		for i := range q {
			if rec := &recs[i]; q[i] != (QueueEntry{Name: rec.name(), TLD: rec.tld(), ID: uint64(rec.id), Updated: simtime.UnpackTime(rec.updated)}) {
				t.Fatalf("shards=%d: queue[%d] = %+v, the record sort has %s (ID %d)", shards, i, q[i], rec.name(), rec.id)
			}
		}
	}
}

func TestBuildQueueMixesTLDs(t *testing.T) {
	day := simtime.Day{Year: 2018, Month: time.January, Dom: 20}
	s := seedPending(t, 500, day, rand.New(rand.NewSource(2)))
	q := NewDropRunner(s, DefaultDropConfig()).BuildQueue(day)
	com, net := 0, 0
	for _, e := range q {
		switch e.TLD {
		case model.COM:
			com++
		case model.NET:
			net++
		}
	}
	if com == 0 || net == 0 {
		t.Fatalf("queue should contain both TLDs: com=%d net=%d", com, net)
	}
}

func TestDropRunDeletesEverything(t *testing.T) {
	day := simtime.Day{Year: 2018, Month: time.January, Dom: 20}
	s := seedPending(t, 300, day, rand.New(rand.NewSource(3)))
	before := s.Count()
	events, err := NewDropRunner(s, DefaultDropConfig()).Run(day, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 300 {
		t.Fatalf("events = %d, want 300", len(events))
	}
	if s.Count() != before-300 {
		t.Fatalf("store count = %d, want %d", s.Count(), before-300)
	}
	if len(s.Deletions(day)) != 300 {
		t.Fatalf("archived deletions = %d", len(s.Deletions(day)))
	}
}

func TestDropRunTimesMonotone(t *testing.T) {
	day := simtime.Day{Year: 2018, Month: time.January, Dom: 20}
	s := seedPending(t, 400, day, rand.New(rand.NewSource(5)))
	events, err := NewDropRunner(s, DefaultDropConfig()).Run(day, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	start := day.At(19, 0, 0)
	for i, ev := range events {
		if ev.Rank() != i {
			t.Fatalf("rank %d at position %d", ev.Rank(), i)
		}
		if ev.Time().Before(start) {
			t.Fatalf("deletion before Drop start: %v", ev.Time())
		}
		if i > 0 && ev.Time().Before(events[i-1].Time()) {
			t.Fatalf("deletion times not monotone at %d", i)
		}
		if ev.Time().Nanosecond() != 0 {
			t.Fatalf("deletion time not second-precise: %v", ev.Time())
		}
	}
}

func TestDropRatePacing(t *testing.T) {
	day := simtime.Day{Year: 2018, Month: time.January, Dom: 20}
	s := seedPending(t, 2000, day, rand.New(rand.NewSource(7)))
	cfg := DropConfig{StartHour: 19, BaseRatePerSec: 10, RateJitter: 0, DayRateSpread: 0}
	events, err := NewDropRunner(s, cfg).Run(day, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	// 2000 domains at exactly 10/s should take 200 seconds.
	want := day.At(19, 0, 0).Add(199 * time.Second)
	if got := EndTime(events); !got.Equal(want) {
		t.Fatalf("end time = %v, want %v", got, want)
	}
}

func TestDropFractionalRate(t *testing.T) {
	day := simtime.Day{Year: 2018, Month: time.January, Dom: 20}
	s := seedPending(t, 100, day, rand.New(rand.NewSource(9)))
	cfg := DropConfig{StartHour: 19, BaseRatePerSec: 0.5, RateJitter: 0, DayRateSpread: 0}
	events, err := NewDropRunner(s, cfg).Run(day, rand.New(rand.NewSource(10)))
	if err != nil {
		t.Fatal(err)
	}
	// 100 domains at 0.5/s: one deletion every other second, ~199 s total.
	got := EndTime(events).Sub(day.At(19, 0, 0))
	if got < 195*time.Second || got > 203*time.Second {
		t.Fatalf("duration = %v, want ≈199 s", got)
	}
}

func TestDropDayRateSpreadVariesDuration(t *testing.T) {
	day := simtime.Day{Year: 2018, Month: time.January, Dom: 20}
	cfg := DropConfig{StartHour: 19, BaseRatePerSec: 10, RateJitter: 0, DayRateSpread: 0.3}
	durations := make(map[time.Duration]bool)
	for seed := int64(0); seed < 5; seed++ {
		s := seedPending(t, 1000, day, rand.New(rand.NewSource(20+seed)))
		events, err := NewDropRunner(s, cfg).Run(day, rand.New(rand.NewSource(30+seed)))
		if err != nil {
			t.Fatal(err)
		}
		durations[EndTime(events).Sub(day.At(19, 0, 0))] = true
	}
	if len(durations) < 2 {
		t.Fatal("day rate spread produced identical durations")
	}
}

func TestDropEmptyDay(t *testing.T) {
	s := NewStore(testClock())
	day := simtime.Day{Year: 2018, Month: time.January, Dom: 20}
	events, err := NewDropRunner(s, DefaultDropConfig()).Run(day, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 0 {
		t.Fatalf("events on empty day: %d", len(events))
	}
	if !EndTime(events).IsZero() {
		t.Fatal("EndTime of empty slice not zero")
	}
}

func TestDropOnlyTargetsGivenDay(t *testing.T) {
	dayA := simtime.Day{Year: 2018, Month: time.January, Dom: 20}
	dayB := dayA.Next()
	s := seedPending(t, 50, dayA, rand.New(rand.NewSource(11)))
	// Add domains for the next day too.
	for i := 0; i < 30; i++ {
		name := fmt.Sprintf("next%02d.com", i)
		updated := dayB.AddDays(-35).At(6, 0, 0)
		if _, err := s.SeedAt(name, 1000, updated.AddDate(-1, 0, 0), updated, updated, model.StatusPendingDelete, dayB); err != nil {
			t.Fatal(err)
		}
	}
	events, err := NewDropRunner(s, DefaultDropConfig()).Run(dayA, rand.New(rand.NewSource(12)))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 50 {
		t.Fatalf("deleted %d, want 50", len(events))
	}
	if s.Count() != 30 {
		t.Fatalf("remaining = %d, want 30", s.Count())
	}
}

// Property: for any random set of (updated, id) pairs, the queue order is a
// total order consistent with (Updated, ID) lexicographic comparison.
func TestQueueOrderProperty(t *testing.T) {
	day := simtime.Day{Year: 2018, Month: time.January, Dom: 20}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewStore(testClock())
		s.AddRegistrar(model.Registrar{IANAID: 1000})
		n := 50 + rng.Intn(100)
		for i := 0; i < n; i++ {
			updated := day.AddDays(-35).At(6, 0, rng.Intn(30))
			name := fmt.Sprintf("p%d-%d.com", seed&0xffff, i)
			if _, err := s.SeedAt(name, 1000, updated.AddDate(-1, 0, 0), updated, updated, model.StatusPendingDelete, day); err != nil {
				return false
			}
		}
		q := NewDropRunner(s, DefaultDropConfig()).BuildQueue(day)
		for i := 1; i < len(q); i++ {
			a, b := q[i-1], q[i]
			if b.Updated.Before(a.Updated) {
				return false
			}
			if a.Updated.Equal(b.Updated) && b.ID <= a.ID {
				return false
			}
		}
		return len(q) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
