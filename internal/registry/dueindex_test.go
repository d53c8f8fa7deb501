package registry

import (
	"fmt"
	"hash/maphash"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"dropzero/internal/model"
	"dropzero/internal/simtime"
)

// bucketDayOf returns the day the due index files the domain under, read
// back as a calendar day: for an active domain its expiry day, provided its
// chunk's bound does not hide it from the active pass; otherwise the day of
// the bucket of its state that holds it as a member. ok=false: the index
// would not find it.
func bucketDayOf(s *Store, name string) (simtime.Day, bool) {
	sh := s.shardOf(name)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	r, ref := sh.tab.get(name)
	switch {
	case r == nil:
		return simtime.Day{}, false
	case r.status() == model.StatusActive:
		if atomic.LoadUint32(&sh.tab.soonest[ref>>chunkShift]) > r.expiry {
			return simtime.Day{}, false
		}
		return simtime.DayNumbered(int64(dayKey(simtime.UnixOf(r.expiry) / daySecs))), true
	case !bucketed(r.status()):
		return simtime.Day{}, false
	}
	ix := sh.due[r.status()-firstDueState]
	for i := range ix {
		found := false
		sh.members(r.status(), &ix[i], func(b *record) { found = found || b == r })
		if found {
			return simtime.DayNumbered(int64(ix[i].day)), true
		}
	}
	return simtime.Day{}, false
}

// indexSize counts every domain the due index would find across all shards
// — bucket members, and active domains their chunk bound does not hide —
// for leak checks.
func indexSize(s *Store) int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for k, ix := range sh.due {
			for j := range ix {
				sh.members(firstDueState+model.Status(k), &ix[j], func(*record) { n++ })
			}
		}
		sh.tab.each(func(r *record, ref uint32) bool {
			if r.status() == model.StatusActive && atomic.LoadUint32(&sh.tab.soonest[ref>>chunkShift]) <= r.expiry {
				n++
			}
			return true
		})
		sh.mu.RUnlock()
	}
	return n
}

// TestDueIndexFollowsLifecycle walks one domain through every mutator and
// asserts it always sits in exactly one bucket, keyed by the day its
// current window opened, whatever Lifecycle is attached.
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

	// autoRenew buckets at grace start, the expiry day, not at its end.
	if err := s.setState("indexed.com", model.StatusAutoRenew, d.Expiry, simtime.Day{}); err != nil {
		t.Fatal(err)
	}
	if day, _ := bucketDayOf(s, "indexed.com"); day != simtime.DayOf(d.Expiry) {
		t.Fatalf("autoRenew bucket = %v, want the expiry day %v", day, simtime.DayOf(d.Expiry))
	}

	// Transfer re-activates the name: its chunk bound holds it again.
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

	// Redemption buckets at redemption start, the Updated day, not at
	// Updated + RedemptionDays.
	if err := s.MarkRedemption("indexed.com", 1001, clock.Now()); err != nil {
		t.Fatal(err)
	}
	if day, _ := bucketDayOf(s, "indexed.com"); day != simtime.DayOf(clock.Now()) {
		t.Fatalf("redemption bucket = %v, want %v", day, simtime.DayOf(clock.Now()))
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
	var sh shard
	sh.tab.init(maphash.MakeSeed())
	base := simtime.Day{Year: 2018, Month: time.March, Dom: 10}
	key := func(d simtime.Day) uint32 { return uint32(d.Number()) }
	refs := make([]uint32, 5)
	for i := range refs {
		r := record{id: uint32(i + 1)}
		r.setName(fmt.Sprintf("d%d.com", i))
		if err := r.setStatus(model.StatusPendingDelete); err != nil {
			t.Fatal(err)
		}
		_, refs[i] = sh.tab.put(r, sh.tab.hash(r.name()))
	}
	// file moves domain i to day d (its first filing when it has no day).
	file := func(i int, d simtime.Day) {
		r := sh.tab.rec(refs[i])
		next := *r
		next.deleteDay = uint16(key(d))
		if r.deleteDay == 0 {
			*r = next
			sh.dueAdd(r, refs[i])
			return
		}
		sh.refile(r, refs[i], next)
	}
	pd := model.StatusPendingDelete
	days := func() (ds []uint32) {
		for _, b := range sh.due[pd-firstDueState] {
			ds = append(ds, b.day)
		}
		return ds
	}
	file(0, base.AddDays(3))
	file(1, base)
	file(2, base.AddDays(7))
	file(3, base)
	if want := []uint32{key(base), key(base.AddDays(3)), key(base.AddDays(7))}; !slices.Equal(days(), want) {
		t.Fatalf("days = %v, want %v", days(), want)
	}
	var seen []uint32
	sh.dueThrough(pd, base.AddDays(3), func(r *record) { seen = append(seen, r.id) })
	if len(seen) != 3 {
		t.Fatalf("dueThrough visited %d, want 3 (two at base, one at +3)", len(seen))
	}

	// Emptying a bucket removes its day and frees its refs; a later add
	// brings the day back.
	file(1, base.AddDays(9))
	file(3, base.AddDays(9))
	if want := []uint32{key(base.AddDays(3)), key(base.AddDays(7)), key(base.AddDays(9))}; !slices.Equal(days(), want) {
		t.Fatalf("days after emptying base = %v, want %v", days(), want)
	}
	file(4, base)
	seen = seen[:0]
	sh.dueBetween(pd, base, base.AddDays(8), func(r *record) { seen = append(seen, r.id) })
	if fmt.Sprint(seen) != "[5 1 3]" {
		t.Fatalf("dueBetween visited IDs %v, want [5 1 3] (days base, +3, +7)", seen)
	}
	// A move within one bucket keeps the bucket as it was.
	r := sh.tab.rec(refs[4])
	next := *r
	next.updated = 12345
	sh.refile(r, refs[4], next)
	if b := sh.due[pd-firstDueState].find(key(base)); b == nil || b.live != 1 || len(b.refs) != 1 {
		t.Fatalf("base bucket after an in-place update = %+v, want one live ref", b)
	}
}

// TestDueBucketKeepsEachRefOnce drives one pendingDelete bucket through
// every way a ref goes stale and comes back — a move out and back in, a
// purge whose slot a new registration takes — and checks after each step
// that the bucket holds each ref once, counts its members, walks each
// member once, compacts once more than half of it is stale and is freed at
// its last member.
func TestDueBucketKeepsEachRefOnce(t *testing.T) {
	clock := testClock()
	s := NewStoreWithShards(clock, 1)
	s.AddRegistrar(model.Registrar{IANAID: 1000, Name: "R"})
	NewLifecycle(s, DefaultLifecycleConfig())
	day := simtime.DayOf(clock.Now()).AddDays(3)
	other := day.AddDays(1)
	seed := func(name string) {
		t.Helper()
		updated := clock.Now().AddDate(0, 0, -35)
		if _, err := s.SeedAt(name, 1000, updated.AddDate(-2, 0, 0), updated, updated.AddDate(0, 0, -30), model.StatusPendingDelete, day); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		seed(fmt.Sprintf("b%d.com", i))
	}
	sh := &s.shards[0]
	// expect checks the bucket's refs and members, and that a walk yields
	// every member once.
	expect := func(step string, refs, live int) {
		t.Helper()
		checkDuePositions(t, s)
		b := sh.due[model.StatusPendingDelete-firstDueState].find(uint32(day.Number()))
		if live == 0 {
			if b != nil {
				t.Fatalf("%s: the bucket holds %d refs and %d members, want it freed", step, len(b.refs), b.live)
			}
			return
		}
		if b == nil || len(b.refs) != refs || b.live != live {
			t.Fatalf("%s: bucket = %+v, want %d refs and %d members", step, b, refs, live)
		}
		if got := len(s.PendingDeletions(day, 1)); got != live {
			t.Fatalf("%s: the day lists %d names, want %d", step, got, live)
		}
	}
	expect("seeded", 10, 10)
	for _, name := range []string{"b0.com", "b1.com", "b2.com"} {
		if err := s.MarkPendingDelete(name, time.Time{}, other); err != nil {
			t.Fatal(err)
		}
	}
	expect("three moved out", 10, 7)
	if err := s.MarkPendingDelete("b1.com", time.Time{}, day); err != nil {
		t.Fatal(err)
	}
	expect("one moved back", 10, 8)
	if _, err := s.purge("b5.com", day.At(19, 0, 0), 0); err != nil {
		t.Fatal(err)
	}
	expect("one purged", 10, 7)
	seed("reuses-b5-slot.com")
	expect("its slot reused", 10, 8)
	for _, name := range []string{"b6.com", "b7.com", "b8.com"} {
		if err := s.setState(name, model.StatusRedemption, clock.Now(), simtime.Day{}); err != nil {
			t.Fatal(err)
		}
	}
	expect("five stale of ten", 10, 5)
	if err := s.setState("b9.com", model.StatusRedemption, clock.Now(), simtime.Day{}); err != nil {
		t.Fatal(err)
	}
	expect("compacted at the sixth", 4, 4)
	for _, name := range []string{"b1.com", "b3.com", "b4.com", "reuses-b5-slot.com"} {
		if _, err := s.purge(name, day.At(19, 0, 0), 0); err != nil {
			t.Fatal(err)
		}
	}
	expect("emptied", 0, 0)
	seed("again.com")
	expect("refilled", 1, 1)
}

// TestUnindexedStatusLeavesItsBucket: a registration moved to a state with
// no due index leaves its bucket — a walk no longer yields it though its ref
// stays — and rejoins the same bucket when it returns to its state and day,
// reviving that ref rather than adding a second. One shard, so the three
// share a bucket.
func TestUnindexedStatusLeavesItsBucket(t *testing.T) {
	clock := testClock()
	s := NewStoreWithShards(clock, 1)
	s.AddRegistrar(model.Registrar{IANAID: 1000, Name: "Test Registrar"})
	NewLifecycle(s, DefaultLifecycleConfig())
	day := simtime.DayOf(clock.Now()).AddDays(2)
	for _, name := range []string{"first.com", "middle.com", "last.com"} {
		if _, err := s.Create(name, 1000, 1); err != nil {
			t.Fatal(err)
		}
		if err := s.MarkPendingDelete(name, clock.Now(), day); err != nil {
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
	if got := s.PendingDeletions(day, 1); len(got) != 2 {
		t.Fatalf("the day lists %v, want first and last", got)
	}
	if err := s.MarkPendingDelete("middle.com", clock.Now(), day); err != nil {
		t.Fatal(err)
	}
	checkDuePositions(t, s)
	if b := s.shards[0].due[model.StatusPendingDelete-firstDueState].find(uint32(day.Number())); b == nil || len(b.refs) != 3 || b.live != 3 {
		t.Fatalf("bucket = %+v, want its 3 refs live again", b)
	}
	if n := indexSize(s); n != 3 {
		t.Fatalf("index holds %d registrations, want 3", n)
	}
}

// TestChunkBoundNeverHidesAnExpiry: the lifecycle's active pass skips a
// chunk whose expiry bound is after now, so every way an active
// registration gets an expiry must lower its chunk's bound, and nothing may
// raise it past an expiry still to come. Each case starts from one shard
// whose chunk bound a tick has just set to a registration five years out,
// makes a registration that expires a day from now, and must see it
// auto-renewed by the tick after that — and nothing else moved.
func TestChunkBoundNeverHidesAnExpiry(t *testing.T) {
	now := testClock().Now()
	soon := now.AddDate(0, 0, 1)
	cases := []struct {
		name  string
		setup func(s *Store) error
		op    func(s *Store) error
	}{
		{"create", nil, func(s *Store) error {
			_, err := s.CreateAt("soon.com", 1000, 1, soon.AddDate(-1, 0, 0))
			return err
		}},
		{"restore", nil, func(s *Store) error {
			return s.InstallRestoredDomains([]SnapshotDomain{{Domain: model.Domain{ID: 50, Name: "soon.com", TLD: model.COM,
				RegistrarID: 1000, Created: now.AddDate(-1, 0, 0), Updated: now, Expiry: soon}}})
		}},
		{"replay", nil, func(s *Store) error {
			return s.ApplyBatch([]Mutation{{Kind: MutCreate, Name: "soon.com", ID: 51, RegistrarID: 1000,
				Created: now.AddDate(-1, 0, 0), Updated: now, Expiry: soon}}, 1)
		}},
		{"restore from redemption", func(s *Store) error {
			_, err := s.SeedAt("soon.com", 1000, now.AddDate(-3, 0, 0), now.AddDate(0, 0, -1), soon.AddDate(-1, 0, 0), model.StatusRedemption, simtime.Day{})
			return err
		}, func(s *Store) error { return s.Renew("soon.com", 1000, 1) }},
		{"a renew that raises the bound", func(s *Store) error {
			for _, name := range []string{"renewed.com", "soon.com"} {
				if _, err := s.SeedAt(name, 1000, now.AddDate(-1, 0, 0), now, soon, model.StatusActive, simtime.Day{}); err != nil {
					return err
				}
			}
			return nil
		}, func(s *Store) error { return s.Renew("renewed.com", 1000, 1) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			clock := testClock()
			s := NewStoreWithShards(clock, 1)
			s.AddRegistrar(model.Registrar{IANAID: 1000, Name: "R"})
			lc := NewLifecycle(s, DefaultLifecycleConfig())
			if _, err := s.SeedAt("far.com", 1000, now.AddDate(-1, 0, 0), now, now.AddDate(5, 0, 0), model.StatusActive, simtime.Day{}); err != nil {
				t.Fatal(err)
			}
			if c.setup != nil {
				if err := c.setup(s); err != nil {
					t.Fatal(err)
				}
			}
			if n := lc.Tick(now); n != 0 {
				t.Fatalf("the first tick moved %d", n)
			}
			if err := c.op(s); err != nil {
				t.Fatal(err)
			}
			checkDuePositions(t, s)
			if n := lc.Tick(soon.Add(-time.Second)); n != 0 {
				t.Fatalf("a tick before the expiry moved %d", n)
			}
			if n := lc.Tick(soon); n != 1 {
				t.Fatalf("the tick at the expiry moved %d, want 1", n)
			}
			for name, want := range map[string]model.Status{"soon.com": model.StatusAutoRenew, "far.com": model.StatusActive} {
				if d, err := s.Get(name); err != nil || d.Status != want {
					t.Fatalf("%s = %+v, %v; want %v", name, d, err, want)
				}
			}
			checkDuePositions(t, s)
		})
	}
}

// TestActivePassSkipsChunksNotDue: the active pass walks only the chunks
// whose bound is not after now — here the one chunk of four holding an early
// expiry — and, once a walk has found that registration moved on, none.
func TestActivePassSkipsChunksNotDue(t *testing.T) {
	clock := testClock()
	s := NewStoreWithShards(clock, 1)
	s.AddRegistrar(model.Registrar{IANAID: 1000, Name: "R"})
	lc := NewLifecycle(s, DefaultLifecycleConfig())
	now := clock.Now()
	const n = 4 * chunkSize
	for i := 0; i < n; i++ {
		expiry := now.AddDate(1, 0, 0)
		if i == 2*chunkSize+7 {
			expiry = now.AddDate(0, 0, 3)
		}
		if _, err := s.SeedAt(fmt.Sprintf("d%05d.com", i), 1000, now.AddDate(-1, 0, 0), now, expiry, model.StatusActive, simtime.Day{}); err != nil {
			t.Fatal(err)
		}
	}
	walked := func(at time.Time) (chunks int) {
		sh := &s.shards[0]
		for c := range sh.tab.chunks {
			if simtime.UnixOf(atomic.LoadUint32(&sh.tab.soonest[c])) <= at.Unix() {
				chunks++
			}
		}
		return chunks
	}
	if moved := lc.Tick(now); moved != 0 || walked(now) != 0 {
		t.Fatalf("tick moved %d, and %d chunks are due now", moved, walked(now))
	}
	if got := walked(now.AddDate(0, 0, 3)); got != 1 {
		t.Fatalf("%d chunks due in three days, want the one holding the early expiry", got)
	}
	if moved := lc.Tick(now.AddDate(0, 0, 3)); moved != 1 {
		t.Fatalf("tick at the early expiry moved %d, want 1", moved)
	}
	// That walk saw the registration still active; the next resets the
	// bound past it.
	if moved := lc.Tick(now.AddDate(0, 0, 3)); moved != 0 || walked(now.AddDate(0, 0, 3)) != 0 {
		t.Fatalf("the next tick moved %d, and %d chunks are still due", moved, walked(now.AddDate(0, 0, 3)))
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
		if err := s.MarkRedemption(name, 1000, clock.Now()); err != nil {
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
			s.MarkRedemption(name, 1000, clock.Now())
		case 2:
			s.MarkRedemption(name, 1000, clock.Now())
			s.MarkPendingDelete(name, time.Time{}, day.AddDays(i%5))
		case 3:
			s.MarkRedemption(name, 1000, clock.Now())
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
