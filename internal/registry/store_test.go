package registry

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
	"unsafe"

	"dropzero/internal/model"
	"dropzero/internal/simtime"
)

// TestPendingLayout: a listed name costs its string header and a stored
// day; PendingDeletions' sort scratch fits the padding.
func TestPendingLayout(t *testing.T) {
	if got := unsafe.Sizeof(Pending{}); got != 24 {
		t.Fatalf("Pending is %d bytes, want 24", got)
	}
}

// TestPendingDay: an entry gives back the day it was built with, at both
// ends of the stored range and for the zero Day, and refuses a day it cannot
// store.
func TestPendingDay(t *testing.T) {
	for _, day := range []simtime.Day{{}, {Year: 1970, Month: time.January, Dom: 2}, {Year: 2018, Month: time.January, Dom: 10}, {Year: 2149, Month: time.June, Dom: 6}} {
		p, err := NewPending("a.com", day)
		if err != nil || p.DeleteDay() != day || p.Name != "a.com" {
			t.Fatalf("%v came back as %+v, %v", day, p, err)
		}
		if want, _ := day.Pack(); p.PackedDeleteDay() != want {
			t.Fatalf("%v packs to %d, want %d", day, p.PackedDeleteDay(), want)
		}
	}
	for _, day := range []simtime.Day{{Year: 1970, Month: time.January, Dom: 1}, {Year: 2149, Month: time.June, Dom: 7}, {Year: 2018, Month: time.February, Dom: 30}} {
		if p, err := NewPending("a.com", day); err == nil {
			t.Errorf("%v accepted as %v", day, p.DeleteDay())
		}
	}
}

func testClock() *simtime.SimClock {
	return simtime.NewSimClock(time.Date(2018, 1, 1, 12, 0, 0, 0, time.UTC))
}

func testStore(t *testing.T) (*Store, *simtime.SimClock) {
	t.Helper()
	clock := testClock()
	s := NewStore(clock)
	s.AddRegistrar(model.Registrar{IANAID: 1000, Name: "Test Registrar"})
	s.AddRegistrar(model.Registrar{IANAID: 1001, Name: "Other Registrar"})
	return s, clock
}

func TestCreateAndGet(t *testing.T) {
	s, clock := testStore(t)
	d, err := s.Create("example.com", 1000, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d.ID == 0 || d.Name != "example.com" || d.TLD != model.COM {
		t.Fatalf("created domain wrong: %+v", d)
	}
	if !d.Created.Equal(simtime.Trunc(clock.Now())) {
		t.Fatalf("Created = %v, want clock time", d.Created)
	}
	if want := d.Created.AddDate(2, 0, 0); !d.Expiry.Equal(want) {
		t.Fatalf("Expiry = %v, want %v", d.Expiry, want)
	}
	got, err := s.Get("example.com")
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != d.ID {
		t.Fatalf("Get returned different domain: %+v", got)
	}
}

// TestInsertAllocatesNothing pins the insert path's cost: a seed and a
// winning create return the registration by value, and a losing create is
// refused with the bare ErrExists under the read lock, so none of them
// allocates — the table's chunks and buckets amortise to nothing over
// 10 000 inserts.
func TestInsertAllocatesNothing(t *testing.T) {
	s, clock := testStore(t)
	at := clock.Now()
	const runs = 10_000
	names := make([]string, 2*(runs+1))
	for i := range names {
		names[i] = fmt.Sprintf("alloc%05d.com", i)
	}
	next := 0
	seed := testing.AllocsPerRun(runs, func() {
		if _, err := s.SeedAt(names[next], 1000, at, at, at.AddDate(1, 0, 0), model.StatusActive, simtime.Day{}); err != nil {
			t.Fatal(err)
		}
		next++
	})
	win := testing.AllocsPerRun(runs, func() {
		if _, err := s.CreateAt(names[next], 1000, 1, at); err != nil {
			t.Fatal(err)
		}
		next++
	})
	lose := testing.AllocsPerRun(runs, func() {
		if _, err := s.CreateAt(names[next%len(names)], 1001, 1, at); err != ErrExists {
			t.Fatalf("losing create: %v, want the bare ErrExists", err)
		}
		next++
	})
	if seed != 0 || win != 0 || lose != 0 {
		t.Fatalf("allocs/op: SeedAt %v, winning CreateAt %v, losing CreateAt %v; want 0", seed, win, lose)
	}
}

func TestCreateDuplicateFails(t *testing.T) {
	s, _ := testStore(t)
	if _, err := s.Create("example.com", 1000, 1); err != nil {
		t.Fatal(err)
	}
	_, err := s.Create("example.com", 1001, 1)
	if !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create: %v, want ErrExists", err)
	}
}

func TestCreateValidation(t *testing.T) {
	s, _ := testStore(t)
	cases := []struct {
		name  string
		years int
		want  error
	}{
		{"example.org", 1, ErrUnknownTLD},
		{"noext", 1, ErrUnknownTLD},
		{".com", 1, ErrBadName},
		{"-bad.com", 1, ErrBadName},
		{"bad-.com", 1, ErrBadName},
		{"UPPER.com", 1, ErrBadName},
		{"ok.com", 0, ErrBadName},
		{"ok.com", 11, ErrBadName},
	}
	for _, c := range cases {
		if _, err := s.Create(c.name, 1000, c.years); !errors.Is(err, c.want) {
			t.Errorf("Create(%q, %d) = %v, want %v", c.name, c.years, err, c.want)
		}
	}
	if _, err := s.Create("ok.com", 999, 1); !errors.Is(err, ErrUnknownRegistrar) {
		t.Errorf("unknown registrar: %v", err)
	}
}

func TestCreateReturnsCopy(t *testing.T) {
	s, _ := testStore(t)
	d, _ := s.Create("example.com", 1000, 1)
	d.Name = "mutated.com"
	got, _ := s.Get("example.com")
	if got == nil || got.Name != "example.com" {
		t.Fatal("store was mutated through returned pointer")
	}
}

func TestAvailable(t *testing.T) {
	s, _ := testStore(t)
	avail, err := s.Available("example.com")
	if err != nil || !avail {
		t.Fatalf("Available before create: %v, %v", avail, err)
	}
	s.Create("example.com", 1000, 1)
	avail, err = s.Available("example.com")
	if err != nil || avail {
		t.Fatalf("Available after create: %v, %v", avail, err)
	}
	if _, err := s.Available("bad domain.com"); !errors.Is(err, ErrBadName) {
		t.Fatalf("Available(bad) = %v", err)
	}
}

func TestTouchUpdatesTimestamp(t *testing.T) {
	s, clock := testStore(t)
	s.Create("example.com", 1000, 1)
	clock.Advance(time.Hour)
	if err := s.Touch("example.com", 1000); err != nil {
		t.Fatal(err)
	}
	d, _ := s.Get("example.com")
	if !d.Updated.Equal(simtime.Trunc(clock.Now())) {
		t.Fatalf("Updated = %v, want %v", d.Updated, clock.Now())
	}
	if err := s.Touch("example.com", 1001); !errors.Is(err, ErrWrongRegistrar) {
		t.Fatalf("Touch by wrong registrar: %v", err)
	}
	if err := s.Touch("missing.com", 1000); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Touch missing: %v", err)
	}
}

func TestRenewExtendsExpiry(t *testing.T) {
	s, _ := testStore(t)
	d, _ := s.Create("example.com", 1000, 1)
	if err := s.Renew("example.com", 1000, 2); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Get("example.com")
	if want := d.Expiry.AddDate(2, 0, 0); !got.Expiry.Equal(want) {
		t.Fatalf("Expiry = %v, want %v", got.Expiry, want)
	}
	if err := s.Renew("example.com", 1001, 1); !errors.Is(err, ErrWrongRegistrar) {
		t.Fatalf("Renew wrong registrar: %v", err)
	}
}

func TestIDsIncreaseWithCreation(t *testing.T) {
	s, clock := testStore(t)
	var last uint64
	for i := 0; i < 10; i++ {
		d, err := s.Create(fmt.Sprintf("domain%d.com", i), 1000, 1)
		if err != nil {
			t.Fatal(err)
		}
		if d.ID <= last {
			t.Fatalf("ID %d not increasing after %d", d.ID, last)
		}
		last = d.ID
		clock.Advance(time.Second)
	}
}

func TestMarkRedemptionAndPendingDelete(t *testing.T) {
	s, clock := testStore(t)
	s.Create("example.com", 1000, 1)
	at := clock.Now().Add(time.Hour)
	if err := s.MarkRedemption("example.com", at); err != nil {
		t.Fatal(err)
	}
	d, _ := s.Get("example.com")
	if d.Status != model.StatusRedemption || !d.Updated.Equal(simtime.Trunc(at)) {
		t.Fatalf("after MarkRedemption: %+v", d)
	}
	day := simtime.DayOf(clock.Now()).AddDays(35)
	if err := s.MarkPendingDelete("example.com", time.Time{}, day); err != nil {
		t.Fatal(err)
	}
	d, _ = s.Get("example.com")
	if d.Status != model.StatusPendingDelete || d.DeleteDay != day {
		t.Fatalf("after MarkPendingDelete: %+v", d)
	}
	// Updated must be preserved when zero time passed.
	if !d.Updated.Equal(simtime.Trunc(at)) {
		t.Fatalf("Updated changed: %v", d.Updated)
	}
}

func TestPendingDeletionsWindow(t *testing.T) {
	s, clock := testStore(t)
	base := simtime.DayOf(clock.Now())
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("d%d.com", i)
		s.Create(name, 1000, 1)
		s.MarkPendingDelete(name, time.Time{}, base.AddDays(i))
	}
	got := s.PendingDeletions(base, 5)
	if len(got) != 5 {
		t.Fatalf("PendingDeletions returned %d, want 5", len(got))
	}
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		if b.DeleteDay().Before(a.DeleteDay()) {
			t.Fatal("results not sorted by delete day")
		}
		if a.DeleteDay() == b.DeleteDay() && a.Name > b.Name {
			t.Fatal("results not sorted by name within day")
		}
	}
}

// TestPendingDeletionsMatchesScanAcrossWindows holds the bucketed listing to
// the full-scan reference over windows narrower and wider than its stack
// buffers, starting before, inside and after the scheduled days, at 1 and 8
// shards. The names share long prefixes and differ in length, so the sort's
// eight-byte prefix keys tie and the names decide.
func TestPendingDeletionsMatchesScanAcrossWindows(t *testing.T) {
	base := simtime.Day{Year: 2018, Month: time.February, Dom: 20}
	for _, shards := range []int{1, 8} {
		s := NewStoreWithShards(simtime.NewSimClock(base.At(12, 0, 0)), shards)
		s.AddRegistrar(model.Registrar{IANAID: 1000, Name: "R"})
		rng := rand.New(rand.NewSource(int64(shards)))
		for i := 0; i < 2000; i++ {
			name := fmt.Sprintf("%s%d.com", []string{"a", "sameprefix", "sameprefix-", "z"}[rng.Intn(4)], rng.Intn(1_000_000))
			if _, err := s.Create(name, 1000, 1); err != nil {
				continue // a repeated draw
			}
			if err := s.MarkPendingDelete(name, time.Time{}, base.AddDays(rng.Intn(30))); err != nil {
				t.Fatal(err)
			}
		}
		for _, from := range []simtime.Day{base.AddDays(-3), base, base.AddDays(7), base.AddDays(29), base.AddDays(31)} {
			for _, days := range []int{0, 1, 5, 8, 9, 40} {
				got, want := s.PendingDeletions(from, days), s.pendingDeletionsScan(from, days)
				if !slices.Equal(got, want) {
					t.Fatalf("shards=%d, %d days from %v: %d names listed, the scan %d, or in another order", shards, days, from, len(got), len(want))
				}
			}
		}
	}
}

func TestPurgeLifecycleChecks(t *testing.T) {
	s, clock := testStore(t)
	s.Create("active.com", 1000, 1)
	if _, err := s.purge("active.com", clock.Now(), 0); !errors.Is(err, ErrNotPendingDelete) {
		t.Fatalf("purge active: %v", err)
	}
	if _, err := s.purge("missing.com", clock.Now(), 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("purge missing: %v", err)
	}
}

func TestPurgeRecordsGroundTruthAndFreesName(t *testing.T) {
	s, clock := testStore(t)
	d, _ := s.Create("example.com", 1000, 1)
	day := simtime.DayOf(clock.Now())
	s.MarkPendingDelete("example.com", time.Time{}, day)
	at := day.At(19, 0, 7)
	ev, err := s.purge("example.com", at, 42)
	if err != nil {
		t.Fatal(err)
	}
	if ev.DomainID() != d.ID || ev.Rank() != 42 || !ev.Time().Equal(at) {
		t.Fatalf("event = %+v", ev)
	}
	if _, err := s.Get("example.com"); !errors.Is(err, ErrNotFound) {
		t.Fatal("domain still present after purge")
	}
	evs := s.Deletions(day)
	if len(evs) != 1 || evs[0].Name() != "example.com" {
		t.Fatalf("Deletions = %+v", evs)
	}
	// The name is re-registrable now, with a new ID.
	nd, err := s.Create("example.com", 1001, 1)
	if err != nil {
		t.Fatal(err)
	}
	if nd.ID <= d.ID {
		t.Fatalf("re-registration ID %d not greater than %d", nd.ID, d.ID)
	}
}

func TestSeedAtPreservesFields(t *testing.T) {
	s, _ := testStore(t)
	created := time.Date(2014, 3, 1, 4, 5, 6, 0, time.UTC)
	updated := time.Date(2017, 11, 27, 6, 30, 12, 0, time.UTC)
	expiry := time.Date(2017, 10, 20, 4, 5, 6, 0, time.UTC)
	day := simtime.Day{Year: 2018, Month: time.January, Dom: 2}
	d, err := s.SeedAt("seeded.com", 1000, created, updated, expiry, model.StatusPendingDelete, day)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Created.Equal(created) || !d.Updated.Equal(updated) || !d.Expiry.Equal(expiry) {
		t.Fatalf("seeded timestamps wrong: %+v", d)
	}
	if d.Status != model.StatusPendingDelete || d.DeleteDay != day {
		t.Fatalf("seeded status wrong: %+v", d)
	}
}

func TestRegistrarsSorted(t *testing.T) {
	s, _ := testStore(t)
	rs := s.Registrars()
	if len(rs) != 2 || rs[0].IANAID != 1000 || rs[1].IANAID != 1001 {
		t.Fatalf("Registrars = %+v", rs)
	}
	if _, ok := s.Registrar(1000); !ok {
		t.Fatal("Registrar(1000) missing")
	}
	if _, ok := s.Registrar(555); ok {
		t.Fatal("Registrar(555) found")
	}
}

// TestAddRegistrarInOrderCopiesLogN: a directory's adds arrive in IANA-ID
// order, and fill the published array's room instead of copying it, so n
// adds allocate O(log n) times (an array and its list header each time the
// array grows by a quarter), not once or twice per add, and leave at most a
// quarter of the array as room.
func TestAddRegistrarInOrderCopiesLogN(t *testing.T) {
	for _, n := range []int{356, 3560} {
		s := NewStore(simtime.NewSimClock(time.Unix(0, 0)))
		rs := make([]model.Registrar, n)
		for i := range rs {
			rs[i] = model.Registrar{IANAID: 1000 + i, Name: fmt.Sprintf("R%d", i)}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, r := range rs {
			s.AddRegistrar(r)
		}
		runtime.ReadMemStats(&after)
		allocs, bound := after.Mallocs-before.Mallocs, uint64(7*bits.Len(uint(n)))
		t.Logf("%d in-order adds: %d allocations (bound %d)", n, allocs, bound)
		if allocs > bound {
			t.Errorf("%d in-order adds allocated %d times, bound %d", n, allocs, bound)
		}
		if got := s.Registrars(); !slices.Equal(got, rs) {
			t.Fatalf("%d adds listed %d registrars, or others", n, len(got))
		}
		if room := cap(s.registrars.Load().rs) - n; room > n/4 {
			t.Errorf("%d in-order adds left room for %d more", n, room)
		}
	}
}

// TestRegistrarListSeenByReaderNeverChanges: a list a reader loaded keeps
// its length and contents through later in-order adds (which write the
// array past it), a replacement and an insert before the end.
func TestRegistrarListSeenByReaderNeverChanges(t *testing.T) {
	s := NewStore(simtime.NewSimClock(time.Unix(0, 0)))
	add := func(from, to int, suffix string) {
		for id := from; id < to; id++ {
			s.AddRegistrar(model.Registrar{IANAID: id, Name: fmt.Sprintf("R%d%s", id, suffix)})
		}
	}
	add(10, 13, "")
	seen := s.registrars.Load().listed()
	want := slices.Clone(seen)
	if cap(seen) == len(seen) {
		t.Fatalf("no room past the %d listed registrars: the in-place path is not exercised", len(seen))
	}
	for _, step := range []struct {
		what string
		do   func()
	}{
		{"in-order adds", func() { add(13, 40, "") }},
		{"a replacement", func() { add(11, 12, " renamed") }},
		{"an insert before the end", func() { add(5, 6, "") }},
	} {
		step.do()
		if !slices.Equal(seen, want) {
			t.Fatalf("after %s, a reader's list reads %+v, want %+v", step.what, seen, want)
		}
	}
	got := s.Registrars()
	if len(got) != 31 || got[0].IANAID != 5 || got[2].Name != "R11 renamed" || got[30].IANAID != 39 {
		t.Fatalf("Registrars = %+v", got)
	}
}

// TestRegistrarReadersDuringAdds runs Registrar lookups while IDs are added
// in order, renamed and inserted below the first; run it under -race.
func TestRegistrarReadersDuringAdds(t *testing.T) {
	const n = 2000
	s := NewStore(simtime.NewSimClock(time.Unix(0, 0)))
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i += 7 {
				select {
				case <-stop:
					return
				default:
				}
				id := 1000 + i%n
				if r, ok := s.Registrar(id); ok && r.IANAID != id {
					t.Errorf("Registrar(%d) = %+v", id, r)
					return
				}
			}
		}(g)
	}
	for i := 0; i < n; i++ {
		s.AddRegistrar(model.Registrar{IANAID: 1000 + i, Name: "R"})
		if i%100 == 99 {
			s.AddRegistrar(model.Registrar{IANAID: 1000 + i/2, Name: "renamed"})
			s.AddRegistrar(model.Registrar{IANAID: i / 100, Name: "below"})
		}
	}
	close(stop)
	wg.Wait()
	if got := len(s.Registrars()); got != n+n/100 {
		t.Fatalf("%d registrars listed, want %d", got, n+n/100)
	}
}

func TestEachEarlyStop(t *testing.T) {
	s, _ := testStore(t)
	for i := 0; i < 5; i++ {
		s.Create(fmt.Sprintf("d%d.com", i), 1000, 1)
	}
	n := 0
	s.Each(func(*model.Domain) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Fatalf("Each visited %d, want 3", n)
	}
}

func TestStoreConcurrentAccess(t *testing.T) {
	s, _ := testStore(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				name := fmt.Sprintf("g%d-i%d.com", g, i)
				if _, err := s.Create(name, 1000, 1); err != nil {
					t.Errorf("create %s: %v", name, err)
					return
				}
				if _, err := s.Get(name); err != nil {
					t.Errorf("get %s: %v", name, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Count() != 800 {
		t.Fatalf("Count = %d, want 800", s.Count())
	}
}

// recordingObserver captures registry events for assertions.
type recordingObserver struct {
	purged      []string
	transitions []string
}

func (r *recordingObserver) DomainPurged(ev model.DeletionEvent, registrarID int) {
	r.purged = append(r.purged, fmt.Sprintf("%s@%d", ev.Name(), registrarID))
}

func (r *recordingObserver) DomainTransitioned(name string, registrarID int, from, to model.Status) {
	r.transitions = append(r.transitions, fmt.Sprintf("%s:%v->%v", name, from, to))
}

func TestStoreObserverEvents(t *testing.T) {
	s, clock := testStore(t)
	obs := &recordingObserver{}
	s.SetObserver(obs)

	s.Create("watched.com", 1000, 1)
	if err := s.MarkRedemption("watched.com", clock.Now()); err != nil {
		t.Fatal(err)
	}
	day := simtime.DayOf(clock.Now()).AddDays(35)
	if err := s.MarkPendingDelete("watched.com", time.Time{}, day); err != nil {
		t.Fatal(err)
	}
	if _, err := s.purge("watched.com", day.At(19, 0, 0), 0); err != nil {
		t.Fatal(err)
	}
	if len(obs.transitions) != 2 {
		t.Fatalf("transitions = %v", obs.transitions)
	}
	if obs.transitions[0] != "watched.com:active->redemptionPeriod" {
		t.Fatalf("first transition = %q", obs.transitions[0])
	}
	if len(obs.purged) != 1 || obs.purged[0] != "watched.com@1000" {
		t.Fatalf("purged = %v", obs.purged)
	}

	// Removing the observer stops delivery.
	s.SetObserver(nil)
	s.Create("quiet.com", 1000, 1)
	s.MarkRedemption("quiet.com", clock.Now())
	if len(obs.transitions) != 2 {
		t.Fatalf("events after removal: %v", obs.transitions)
	}
}

// TestPurgeOutlivesItsSlot: a purge frees the registration's table slot, and
// the very next create in the shard takes it. What a purge reports — the
// deletion event and, live, the registrar that lost the name — has to be
// read before the slot is released: afterwards the record is zeroed or
// already someone else's. Live purges are checked through the observer,
// replayed ones (replay delivers no events) through the deletion archive.
func TestPurgeOutlivesItsSlot(t *testing.T) {
	for _, shards := range []int{1, 8} {
		t.Run(fmt.Sprintf("%dshards", shards), func(t *testing.T) {
			clock := testClock()
			s := NewStoreWithShards(clock, shards)
			log := &captureJournal{}
			s.SetJournal(log)
			obs := &recordingObserver{}
			s.SetObserver(obs)
			s.AddRegistrar(model.Registrar{IANAID: 1000, Name: "Test Registrar"})
			s.AddRegistrar(model.Registrar{IANAID: 1001, Name: "Other Registrar"})

			const n = 24
			day := simtime.DayOf(clock.Now()).AddDays(5)
			var want []string
			for i := 0; i < n; i++ {
				name, loser := fmt.Sprintf("slot%02d.com", i), 1000+i%2
				if _, err := s.Create(name, loser, 1); err != nil {
					t.Fatal(err)
				}
				if err := s.MarkPendingDelete(name, time.Time{}, day); err != nil {
					t.Fatal(err)
				}
				want = append(want, fmt.Sprintf("%s@%d", name, loser))
			}
			for i := 0; i < n; i++ {
				name, heir := fmt.Sprintf("slot%02d.com", i), 1001-i%2
				ev, err := s.purge(name, day.At(19, 0, i), i)
				if err != nil {
					t.Fatal(err)
				}
				// Same name, same shard: the re-registration lands in the
				// slot the purge just freed.
				d, err := s.Create(name, heir, 1)
				if err != nil {
					t.Fatal(err)
				}
				if ev.Name() != name || ev.TLD() != model.COM || ev.DomainID() == 0 || ev.DomainID() >= d.ID || ev.Rank() != i {
					t.Fatalf("purge %d returned %+v (re-registered as ID %d)", i, ev, d.ID)
				}
			}
			if !slices.Equal(obs.purged, want) {
				t.Fatalf("observer saw purges %v, want %v", obs.purged, want)
			}

			archive := s.Deletions(day)
			if len(archive) != n {
				t.Fatalf("archive holds %d events, want %d", len(archive), n)
			}
			for _, batch := range []bool{false, true} {
				replica := NewStoreWithShards(clock, shards)
				robs := &recordingObserver{}
				replica.SetObserver(robs)
				if batch {
					if err := replica.ApplyBatch(log.records, 1); err != nil {
						t.Fatal(err)
					}
				} else {
					for _, m := range log.records {
						if err := replica.Apply(m); err != nil {
							t.Fatal(err)
						}
					}
				}
				if got := replica.Deletions(day); !slices.EqualFunc(got, archive, model.DeletionEvent.Equal) {
					t.Fatalf("batch=%v: replayed archive %+v, primary's %+v", batch, got, archive)
				}
				for i := 0; i < n; i++ {
					name := fmt.Sprintf("slot%02d.com", i)
					d, err := replica.Get(name)
					if err != nil || d.RegistrarID != 1001-i%2 || d.ID <= archive[i].DomainID() {
						t.Fatalf("batch=%v: %s after replay: %+v, %v", batch, name, d, err)
					}
				}
				if len(robs.purged) != 0 {
					t.Fatalf("batch=%v: replay delivered purge events %v", batch, robs.purged)
				}
			}
		})
	}
}

// TestStoreObserverCanReadStore guards against deadlock: observers may call
// back into the store synchronously.
func TestStoreObserverCanReadStore(t *testing.T) {
	s, clock := testStore(t)
	s.Create("reader.com", 1000, 1)
	s.SetObserver(observerFunc(func() {
		if _, err := s.Get("reader.com"); err != nil {
			t.Errorf("observer read: %v", err)
		}
	}))
	if err := s.MarkRedemption("reader.com", clock.Now()); err != nil {
		t.Fatal(err)
	}
}

// observerFunc adapts a closure to Observer for the reentrancy test.
type observerFunc func()

func (f observerFunc) DomainPurged(model.DeletionEvent, int)                      { f() }
func (f observerFunc) DomainTransitioned(string, int, model.Status, model.Status) { f() }

func TestAuthInfoAccess(t *testing.T) {
	s, _ := testStore(t)
	s.Create("auth.com", 1000, 1)
	code, err := s.AuthInfo("auth.com", 1000)
	if err != nil || code == "" {
		t.Fatalf("sponsor read: %q %v", code, err)
	}
	if _, err := s.AuthInfo("auth.com", 1001); !errors.Is(err, ErrWrongRegistrar) {
		t.Fatalf("foreign read: %v", err)
	}
	if _, err := s.AuthInfo("missing.com", 1000); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing read: %v", err)
	}
}

func TestTransfer(t *testing.T) {
	s, clock := testStore(t)
	s.Create("moving.com", 1000, 1)
	code, _ := s.AuthInfo("moving.com", 1000)

	if err := s.Transfer("moving.com", 1001, "wrong"); !errors.Is(err, ErrBadAuthInfo) {
		t.Fatalf("wrong code: %v", err)
	}
	if err := s.Transfer("moving.com", 1000, code); !errors.Is(err, ErrWrongRegistrar) {
		t.Fatalf("self transfer: %v", err)
	}
	if err := s.Transfer("moving.com", 999, code); !errors.Is(err, ErrUnknownRegistrar) {
		t.Fatalf("unknown gaining registrar: %v", err)
	}
	clock.Advance(time.Hour)
	if err := s.Transfer("moving.com", 1001, code); err != nil {
		t.Fatal(err)
	}
	d, _ := s.Get("moving.com")
	if d.RegistrarID != 1001 {
		t.Fatalf("sponsor = %d", d.RegistrarID)
	}
	if !d.Updated.Equal(simtime.Trunc(clock.Now())) {
		t.Fatalf("Updated = %v", d.Updated)
	}
	// The code rotates: the old one no longer works for a transfer back.
	if err := s.Transfer("moving.com", 1000, code); !errors.Is(err, ErrBadAuthInfo) {
		t.Fatalf("stale code: %v", err)
	}
	newCode, err := s.AuthInfo("moving.com", 1001)
	if err != nil || newCode == code {
		t.Fatalf("code not rotated: %q %v", newCode, err)
	}
}

func TestTransferStatusProhibits(t *testing.T) {
	s, clock := testStore(t)
	s.Create("stuck.com", 1000, 1)
	code, _ := s.AuthInfo("stuck.com", 1000)
	s.MarkRedemption("stuck.com", clock.Now())
	if err := s.Transfer("stuck.com", 1001, code); !errors.Is(err, ErrStatusProhibits) {
		t.Fatalf("redemption transfer: %v", err)
	}
}

func (r *recordingObserver) DomainTransferred(name string, losingID, gainingID int) {
	r.transitions = append(r.transitions, fmt.Sprintf("%s:xfer %d->%d", name, losingID, gainingID))
}

func (f observerFunc) DomainTransferred(string, int, int) { f() }

func TestTransferNotifiesObserver(t *testing.T) {
	s, _ := testStore(t)
	obs := &recordingObserver{}
	s.SetObserver(obs)
	s.Create("note.com", 1000, 1)
	code, _ := s.AuthInfo("note.com", 1000)
	if err := s.Transfer("note.com", 1001, code); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, tr := range obs.transitions {
		if tr == "note.com:xfer 1000->1001" {
			found = true
		}
	}
	if !found {
		t.Fatalf("transfer event missing: %v", obs.transitions)
	}
}

func TestStatusCounts(t *testing.T) {
	s, clock := testStore(t)
	s.Create("a.com", 1000, 1)
	s.Create("b.com", 1000, 1)
	s.MarkRedemption("b.com", clock.Now())
	counts := s.StatusCounts()
	if counts[model.StatusActive] != 1 || counts[model.StatusRedemption] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}

// TestGenerationBumpsOnEveryMutator pins the serving-layer cache contract:
// every successful mutation of observable state bumps Generation() (so
// generation-keyed response caches flush), reads never bump it, and failed
// operations leave it untouched (so caches are not needlessly invalidated).
func TestGenerationBumpsOnEveryMutator(t *testing.T) {
	s, clock := testStore(t)
	day := simtime.DayOf(clock.Now())

	// bumped asserts fn increases the generation by exactly n.
	bumped := func(what string, n uint64, fn func()) {
		t.Helper()
		before := s.Generation()
		fn()
		if got := s.Generation() - before; got != n {
			t.Fatalf("%s: generation moved by %d, want %d", what, got, n)
		}
	}

	bumped("AddRegistrar", 1, func() { s.AddRegistrar(model.Registrar{IANAID: 1002}) })
	bumped("Create", 1, func() {
		if _, err := s.Create("gen.com", 1000, 1); err != nil {
			t.Fatal(err)
		}
	})
	bumped("SeedAt", 1, func() {
		now := clock.Now()
		if _, err := s.SeedAt("genseed.com", 1000, now.AddDate(-1, 0, 0), now, now.AddDate(1, 0, 0), model.StatusActive, simtime.Day{}); err != nil {
			t.Fatal(err)
		}
	})
	bumped("Touch", 1, func() {
		if err := s.Touch("gen.com", 1000); err != nil {
			t.Fatal(err)
		}
	})
	bumped("Renew", 1, func() {
		if err := s.Renew("gen.com", 1000, 1); err != nil {
			t.Fatal(err)
		}
	})
	auth, err := s.AuthInfo("gen.com", 1000)
	if err != nil {
		t.Fatal(err)
	}
	bumped("Transfer", 1, func() {
		if err := s.Transfer("gen.com", 1001, auth); err != nil {
			t.Fatal(err)
		}
	})
	bumped("MarkRedemption", 1, func() {
		if err := s.MarkRedemption("gen.com", clock.Now()); err != nil {
			t.Fatal(err)
		}
	})
	bumped("MarkPendingDelete", 1, func() {
		if err := s.MarkPendingDelete("gen.com", clock.Now(), day); err != nil {
			t.Fatal(err)
		}
	})
	bumped("purge", 1, func() {
		if _, err := s.purge("gen.com", clock.Now(), 0); err != nil {
			t.Fatal(err)
		}
	})

	// Reads must not bump.
	bumped("reads", 0, func() {
		s.Get("genseed.com")
		s.Available("other.com")
		s.Registrar(1000)
		s.Registrars()
		s.PendingDeletions(day, 5)
		s.Deletions(day)
		s.Count()
		s.StatusCounts()
		s.Each(func(*model.Domain) bool { return true })
		s.Generation()
	})

	// Failed mutations must not bump, and must reach neither the journal,
	// the ID allocator nor the observer: every refusal comes before the one
	// state transition.
	cap := &captureJournal{}
	s.SetJournal(cap)
	obs := &recordingObserver{}
	s.SetObserver(obs)
	nextID := s.nextID.Load()
	bumped("failed mutations", 0, func() {
		s.Create("genseed.com", 1000, 1)     // ErrExists
		s.Create("bad name!", 1000, 1)       // ErrBadName
		s.Create("orphan.com", 9999, 1)      // ErrUnknownRegistrar
		s.Create("ok.com", 1000, 11)         // ErrBadName (term)
		s.Touch("missing.com", 1000)         // ErrNotFound
		s.Touch("genseed.com", 1001)         // ErrWrongRegistrar
		s.Renew("missing.com", 1000, 1)      // ErrNotFound
		s.Renew("genseed.com", 1001, 1)      // ErrWrongRegistrar
		s.Transfer("missing.com", 1001, "x") // ErrNotFound
		s.Transfer("genseed.com", 1001, "x") // ErrBadAuthInfo
		s.Transfer("genseed.com", 9999, "x") // ErrUnknownRegistrar
		s.MarkRedemption("missing.com", clock.Now())
		s.MarkPendingDelete("genseed.com", clock.Now(), simtime.Day{Year: 2018, Month: 2, Dom: 30}) // errUnrepresentable
		s.purge("genseed.com", clock.Now(), 0)                                                      // ErrNotPendingDelete
		s.purge("missing.com", clock.Now(), 0)                                                      // ErrNotFound
	})
	if len(cap.records) != 0 {
		t.Errorf("failed mutations were journaled: %+v", cap.records)
	}
	if got := s.nextID.Load(); got != nextID {
		t.Errorf("failed mutations moved the ID allocator %d -> %d", nextID, got)
	}
	if len(obs.purged)+len(obs.transitions) != 0 {
		t.Errorf("failed mutations delivered events: %v %v", obs.purged, obs.transitions)
	}
}

// TestGenerationMonotonicUnderConcurrency drives mutators and Generation
// reads concurrently: the counter must be strictly monotonic from any single
// reader's point of view and end at exactly one bump per committed mutation.
func TestGenerationMonotonicUnderConcurrency(t *testing.T) {
	s, _ := testStore(t)
	start := s.Generation()
	const n = 200
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		last := s.Generation()
		for {
			select {
			case <-stop:
				return
			default:
			}
			g := s.Generation()
			if g < last {
				t.Error("generation went backwards")
				return
			}
			last = g
		}
	}()
	var mw sync.WaitGroup
	for w := 0; w < 4; w++ {
		mw.Add(1)
		go func(w int) {
			defer mw.Done()
			for i := 0; i < n; i++ {
				if _, err := s.Create(fmt.Sprintf("gen-%d-%d.com", w, i), 1000, 1); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	mw.Wait()
	close(stop)
	wg.Wait()
	if got := s.Generation() - start; got != 4*n {
		t.Fatalf("generation advanced by %d, want %d", got, 4*n)
	}
}
