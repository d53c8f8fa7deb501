package registry

import (
	"fmt"
	"hash/maphash"
	"testing"
	"time"

	"dropzero/internal/model"
	"dropzero/internal/simtime"
)

// bucketDayOf returns the due-index bucket day currently holding the domain
// (its key read back as a calendar day), or ok=false when the domain is in
// no bucket of its shard's status index.
func bucketDayOf(s *Store, name string) (simtime.Day, bool) {
	sh := s.shardOf(name)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	r, _ := sh.tab.get(name)
	if r == nil || int(r.status()) >= len(sh.due) {
		return simtime.Day{}, false
	}
	ix := &sh.due[r.status()]
	for _, day := range ix.days {
		found := false
		ix.bucket(day, &sh.tab, func(b *record) { found = found || b == r })
		if found {
			return simtime.DayNumbered(int64(day)), true
		}
	}
	return simtime.Day{}, false
}

// bucketLen counts day's bucket by walking it.
func bucketLen(ix *dueIndex, day uint32, t *table) int {
	n := 0
	ix.bucket(day, t, func(*record) { n++ })
	return n
}

// indexSize counts every indexed domain across all shards and states, for
// leak checks.
func indexSize(s *Store) int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for j := range sh.due {
			for _, day := range sh.due[j].days {
				n += bucketLen(&sh.due[j], day, &sh.tab)
			}
		}
		sh.mu.RUnlock()
	}
	return n
}

// TestDueIndexFollowsLifecycle walks one domain through every mutator and
// asserts it always sits in exactly one bucket, keyed by the day its next
// transition becomes due under the installed policy.
func TestDueIndexFollowsLifecycle(t *testing.T) {
	s, clock := testStore(t)
	cfg := DefaultLifecycleConfig()
	cfg.GraceDays = map[int]int{1000: 40, 1001: 40}
	NewLifecycle(s, cfg)

	created, err := s.Create("indexed.com", 1000, 1)
	d := &created
	if err != nil {
		t.Fatal(err)
	}
	if day, ok := bucketDayOf(s, "indexed.com"); !ok || day != simtime.DayOf(d.Expiry) {
		t.Fatalf("active bucket = %v (ok=%v), want expiry day %v", day, ok, simtime.DayOf(d.Expiry))
	}

	// Renew moves the expiry bucket.
	if err := s.Renew("indexed.com", 1000, 2); err != nil {
		t.Fatal(err)
	}
	d, _ = s.Get("indexed.com")
	if day, _ := bucketDayOf(s, "indexed.com"); day != simtime.DayOf(d.Expiry) {
		t.Fatalf("bucket after renew = %v, want %v", day, simtime.DayOf(d.Expiry))
	}

	// autoRenew buckets at grace end (expiry + 40 days here).
	if err := s.setState("indexed.com", model.StatusAutoRenew, d.Expiry, simtime.Day{}); err != nil {
		t.Fatal(err)
	}
	if day, _ := bucketDayOf(s, "indexed.com"); day != simtime.DayOf(d.Expiry.AddDate(0, 0, 40)) {
		t.Fatalf("autoRenew bucket = %v, want grace end", day)
	}

	// Transfer re-files under the gaining registrar's grace.
	code, err := s.AuthInfo("indexed.com", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Transfer("indexed.com", 1001, code); err != nil {
		t.Fatal(err)
	}
	d, _ = s.Get("indexed.com")
	if day, _ := bucketDayOf(s, "indexed.com"); day != simtime.DayOf(d.Expiry) {
		t.Fatalf("bucket after transfer = %v, want expiry day (active again)", day)
	}

	// Redemption buckets at redemption end (Updated + RedemptionDays);
	// TouchAt moves Updated and must re-file the bucket.
	if err := s.MarkRedemption("indexed.com", clock.Now()); err != nil {
		t.Fatal(err)
	}
	wantRed := simtime.DayOf(simtime.Trunc(clock.Now()).AddDate(0, 0, cfg.RedemptionDays))
	if day, _ := bucketDayOf(s, "indexed.com"); day != wantRed {
		t.Fatalf("redemption bucket = %v, want %v", day, wantRed)
	}

	// pendingDelete buckets at DeleteDay; purge drops it from the index.
	delDay := simtime.DayOf(clock.Now()).AddDays(5)
	if err := s.MarkPendingDelete("indexed.com", time.Time{}, delDay); err != nil {
		t.Fatal(err)
	}
	if day, _ := bucketDayOf(s, "indexed.com"); day != delDay {
		t.Fatalf("pendingDelete bucket = %v, want %v", day, delDay)
	}
	if _, err := s.purge("indexed.com", delDay.At(19, 0, 0), 0); err != nil {
		t.Fatal(err)
	}
	if n := indexSize(s); n != 0 {
		t.Fatalf("index holds %d entries after purge, want 0", n)
	}
}

// TestDueIndexDaysBookkeeping exercises the sorted non-empty-day list
// directly: out-of-order inserts, emptied buckets, repeated days.
func TestDueIndexDaysBookkeeping(t *testing.T) {
	var (
		ix  dueIndex
		tab table
	)
	tab.init(maphash.MakeSeed())
	base := simtime.Day{Year: 2018, Month: time.March, Dom: 10}
	doms := make([]uint32, 6)
	for i := range doms {
		r := record{id: uint32(i + 1)}
		r.setName(fmt.Sprintf("d%d.com", i))
		_, doms[i] = tab.put(r, tab.hash(r.name()))
	}
	key := func(d simtime.Day) uint32 { return uint32(d.Number()) }
	ix.add(key(base.AddDays(3)), doms[0], &tab)
	ix.add(key(base), doms[1], &tab)
	ix.add(key(base.AddDays(7)), doms[2], &tab)
	ix.add(key(base), doms[3], &tab)

	var seen []uint32
	ix.through(base.AddDays(3), &tab, func(r *record) { seen = append(seen, r.id) })
	if len(seen) != 3 {
		t.Fatalf("through visited %d, want 3 (two at base, one at +3)", len(seen))
	}
	if got := bucketLen(&ix, key(base), &tab); got != 2 {
		t.Fatalf("count(base) = %d, want 2", got)
	}

	// Emptying a bucket removes its day; a later re-add restores it.
	ix.remove(key(base), doms[1], &tab)
	ix.remove(key(base), doms[3], &tab)
	if got := len(ix.days); got != 2 {
		t.Fatalf("days after emptying base = %d, want 2", got)
	}
	if r := tab.rec(doms[1]); r.prev != 0 || r.next != 0 {
		t.Fatalf("removed record keeps links %d, %d", r.prev, r.next)
	}
	ix.add(key(base), doms[4], &tab)
	seen = seen[:0]
	ix.eachBucket(base, base.AddDays(8), &tab, func(r *record) { seen = append(seen, r.id) })
	if fmt.Sprint(seen) != "[5 1 3]" {
		t.Fatalf("eachBucket visited IDs %v, want [5 1 3] (days base, +3, +7)", seen)
	}

	// Removing from an unknown day, or a record its bucket does not hold,
	// is a no-op.
	ix.remove(key(base.AddDays(99)), doms[0], &tab)
	ix.remove(key(base), doms[5], &tab)
	if got := bucketLen(&ix, key(base), &tab); got != 1 {
		t.Fatalf("count(base) after no-op removes = %d, want 1", got)
	}
	if got := bucketLen(&ix, key(base.AddDays(3)), &tab); got != 1 {
		t.Fatalf("count(base+3) after no-op removes = %d, want 1", got)
	}
}

// TestUnindexedStatusHasNoLinks: a registration moved to a state with no due
// index leaves its bucket with zero links — the update must not write the
// links it had back — and rejoins a bucket when it returns to one. One
// shard, so the three share a bucket and the middle one has two neighbours.
func TestUnindexedStatusHasNoLinks(t *testing.T) {
	clock := testClock()
	s := NewStoreWithShards(clock, 1)
	s.AddRegistrar(model.Registrar{IANAID: 1000, Name: "Test Registrar"})
	NewLifecycle(s, DefaultLifecycleConfig())
	for _, name := range []string{"first.com", "middle.com", "last.com"} {
		if _, err := s.Create(name, 1000, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.setState("middle.com", model.StatusDeleted, clock.Now(), simtime.Day{}); err != nil {
		t.Fatal(err)
	}
	checkDuePositions(t, s)
	if _, ok := bucketDayOf(s, "middle.com"); ok {
		t.Fatal("a deleted-status registration is still in a bucket")
	}
	if err := s.setState("middle.com", model.StatusActive, clock.Now(), simtime.Day{}); err != nil {
		t.Fatal(err)
	}
	checkDuePositions(t, s)
	if n := indexSize(s); n != 3 {
		t.Fatalf("index holds %d registrations, want 3", n)
	}
}

// TestEachCollectThenAct pins down the documented safe pattern for Each's
// locking contract: collect what to change while iterating (the read lock is
// held, so no Store calls from fn), apply after Each returns.
func TestEachCollectThenAct(t *testing.T) {
	s, clock := testStore(t)
	for i := 0; i < 10; i++ {
		if _, err := s.Create(fmt.Sprintf("collect%d.com", i), 1000, 1); err != nil {
			t.Fatal(err)
		}
	}
	var due []string
	s.Each(func(d *model.Domain) bool {
		if d.Status == model.StatusActive {
			due = append(due, d.Name)
		}
		return true
	})
	for _, name := range due {
		if err := s.MarkRedemption(name, clock.Now()); err != nil {
			t.Fatalf("apply after Each: %v", err)
		}
	}
	if got := s.StatusCounts()[model.StatusRedemption]; got != 10 {
		t.Fatalf("redemption count = %d, want 10", got)
	}
}

// TestStatusCountsStayConsistent cross-checks the incremental per-status
// counters against a fresh full count after a burst of mixed mutations.
func TestStatusCountsStayConsistent(t *testing.T) {
	s, clock := testStore(t)
	NewLifecycle(s, DefaultLifecycleConfig())
	day := simtime.DayOf(clock.Now())
	for i := 0; i < 40; i++ {
		name := fmt.Sprintf("churn%02d.com", i)
		if _, err := s.Create(name, 1000, 1); err != nil {
			t.Fatal(err)
		}
		switch i % 4 {
		case 1:
			s.MarkRedemption(name, clock.Now())
		case 2:
			s.MarkRedemption(name, clock.Now())
			s.MarkPendingDelete(name, time.Time{}, day.AddDays(i%5))
		case 3:
			s.MarkRedemption(name, clock.Now())
			s.MarkPendingDelete(name, time.Time{}, day)
			if _, err := s.purge(name, day.At(19, 0, 0), i); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := make(map[model.Status]int)
	s.Each(func(d *model.Domain) bool {
		want[d.Status]++
		return true
	})
	got := s.StatusCounts()
	if len(got) != len(want) {
		t.Fatalf("StatusCounts = %v, want %v", got, want)
	}
	for st, n := range want {
		if got[st] != n {
			t.Fatalf("StatusCounts[%v] = %d, want %d", st, got[st], n)
		}
	}
	if n := indexSize(s); n != s.Count() {
		t.Fatalf("index holds %d entries, store holds %d", n, s.Count())
	}
}

// sweepWorld populates a store that makes clone-per-scan regressions loud:
// storeSize mostly-idle registrations (nothing due today) plus a small
// pending-delete cohort spread over the published window.
func sweepWorld(tb testing.TB, storeSize, pendingPerDay int) (*Store, *Lifecycle, *DropRunner, simtime.Day) {
	tb.Helper()
	today := simtime.Day{Year: 2018, Month: time.March, Dom: 1}
	clock := simtime.NewSimClock(today.At(12, 0, 0))
	s := NewStore(clock)
	for r := 0; r < 10; r++ {
		s.AddRegistrar(model.Registrar{IANAID: 1000 + r, Name: fmt.Sprintf("R%d", r)})
	}
	lc := NewLifecycle(s, DefaultLifecycleConfig())

	pending := 5 * pendingPerDay
	for i := 0; i < storeSize; i++ {
		name := fmt.Sprintf("sweep%07d.com", i)
		sponsor := 1000 + i%10
		var err error
		if i < pending {
			// pendingDelete, deletion day spread over [today, today+5).
			updated := today.AddDays(-35).At(6, 30, i%60)
			_, err = s.SeedAt(name, sponsor, updated.AddDate(-2, 0, 0), updated,
				updated.AddDate(0, 0, -30), model.StatusPendingDelete, today.AddDays(i%5))
		} else {
			// Active with a future expiry: never due during the benchmark,
			// which is exactly the population a daily sweep must not touch.
			expiry := today.AddDays(30+i%300).At(8, 0, i%60)
			_, err = s.SeedAt(name, sponsor, expiry.AddDate(-1, 0, 0), expiry.AddDate(-1, 0, 0),
				expiry, model.StatusActive, simtime.Day{})
		}
		if err != nil {
			tb.Fatal(err)
		}
	}
	return s, lc, NewDropRunner(s, DefaultDropConfig()), today
}

// TestDailySweepAllocBounds is the allocation-regression guard: on a
// populated store the three daily sweeps must allocate proportionally to the
// due work (here ≤ a few hundred pending domains), never to the store. A
// return of the one-clone-per-domain-per-scan behaviour would blow these
// bounds by two orders of magnitude.
func TestDailySweepAllocBounds(t *testing.T) {
	const storeSize, perDay = 20000, 60
	s, lc, runner, today := sweepWorld(t, storeSize, perDay)
	now := today.At(12, 0, 0)

	// Nothing is due at noon, so Tick only walks (empty) due buckets — and,
	// critically, does not mutate, so every AllocsPerRun round sees the same
	// store.
	if n := lc.Tick(now); n != 0 {
		t.Fatalf("Tick transitioned %d domains; the alloc probe needs an idle store", n)
	}
	checks := []struct {
		name  string
		bound float64
		fn    func()
	}{
		{"Tick", 16, func() { lc.Tick(now) }},
		{"BuildQueue", 16, func() { runner.BuildQueue(today) }},
		// PendingDeletions returns values in one slice: its bound does not
		// scale with the window either.
		{"PendingDeletions", 16, func() { s.PendingDeletions(today, 5) }},
	}
	for _, c := range checks {
		if got := testing.AllocsPerRun(5, c.fn); got > c.bound {
			t.Errorf("%s allocates %.0f per run on a %d-domain store, want <= %.0f", c.name, got, storeSize, c.bound)
		}
	}
}
