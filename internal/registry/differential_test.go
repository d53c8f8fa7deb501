package registry

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"dropzero/internal/model"
	"dropzero/internal/simtime"
)

// engineTrace is everything observable about a multi-week registry run:
// per-day transition counts, deletion queues, published pending-deletion
// windows, ground-truth deletion events, and the final store contents.
type engineTrace struct {
	tickCounts []int
	queues     [][]QueueEntry
	pending    [][]Pending
	deletions  [][]model.DeletionEvent
	counts     []map[model.Status]int
	final      []model.Domain
}

// runEngine drives one store through days of lifecycle ticks, Drops and
// interleaved registrar churn, all derived from seed. With scan=true the
// lifecycle ticks — the one sweep that mutates, hence the twin store — go
// through the full-scan reference (tickScan); with scan=false through the
// due-day indexes. The two read-only sweeps are checked against their scan
// references on the same store, every day, in both modes. shards picks the
// store's shard count (0 = the GOMAXPROCS default). Identical seeds must
// yield identical traces at every engine and every shard count — that
// equivalence is the whole point.
func runEngine(t *testing.T, seed int64, days int, scan bool, shards int) engineTrace {
	t.Helper()
	tr, _ := runEngineOn(t, seed, days, scan, shards, nil)
	return tr
}

// runEngineOn is runEngine returning the final store as well, with an
// optional journal attached before the first mutation so the journal sees
// the complete record stream (the replay differential test depends on
// capturing everything, registrar adds and seeds included).
func runEngineOn(t *testing.T, seed int64, days int, scan bool, shards int, j Journal) (engineTrace, *Store) {
	t.Helper()
	start := simtime.Day{Year: 2018, Month: time.January, Dom: 8}
	clock := simtime.NewSimClock(start.At(0, 30, 0))
	s := NewStoreWithShards(clock, shards)
	if j != nil {
		s.SetJournal(j)
	}
	for r := 0; r < 10; r++ {
		s.AddRegistrar(model.Registrar{IANAID: 1000 + r, Name: fmt.Sprintf("Reg %d", r)})
	}

	// Short pipeline so a domain can traverse active → autoRenew →
	// redemption → pendingDelete → purged inside the test window.
	cfg := DefaultLifecycleConfig()
	cfg.RedemptionDays = 10
	cfg.PendingDeleteDays = 3
	cfg.DefaultGraceDays = 8
	SpreadGraceDays(&cfg, s, 5, 15, rand.New(rand.NewSource(seed+1)))
	lc := NewLifecycle(s, cfg)
	runner := NewDropRunner(s, DefaultDropConfig())

	// Seed a mixed population. Every random draw comes from rng, in a fixed
	// order, so both engines build bit-identical worlds.
	rng := rand.New(rand.NewSource(seed))
	type holding struct {
		name    string
		sponsor int
	}
	var pool []holding
	for i := 0; i < 300; i++ {
		name := fmt.Sprintf("da%04d.com", i)
		sponsor := 1000 + rng.Intn(10)
		var err error
		switch {
		case i < 180: // active; many expire inside the window
			expiry := start.AddDays(-10+rng.Intn(days+20)).At(rng.Intn(24), rng.Intn(60), rng.Intn(60))
			_, err = s.SeedAt(name, sponsor, expiry.AddDate(-1, 0, 0), expiry.AddDate(-1, 0, 0), expiry, model.StatusActive, simtime.Day{})
		case i < 230: // autoRenew with the grace clock already running
			expiry := start.AddDays(-1-rng.Intn(20)).At(rng.Intn(24), rng.Intn(60), 0)
			_, err = s.SeedAt(name, sponsor, expiry.AddDate(-1, 0, 0), expiry, expiry, model.StatusAutoRenew, simtime.Day{})
		case i < 260: // redemption, Updated in the recent past
			updated := start.AddDays(-1-rng.Intn(12)).At(6, 30, rng.Intn(60))
			_, err = s.SeedAt(name, sponsor, updated.AddDate(-2, 0, 0), updated, updated.AddDate(0, 0, -20), model.StatusRedemption, simtime.Day{})
		default: // pendingDelete spread over the first week of Drops
			updated := start.AddDays(-20).At(6, 30, rng.Intn(60))
			_, err = s.SeedAt(name, sponsor, updated.AddDate(-2, 0, 0), updated, updated.AddDate(0, 0, -20), model.StatusPendingDelete, start.AddDays(rng.Intn(7)))
		}
		if err != nil {
			t.Fatal(err)
		}
		pool = append(pool, holding{name, sponsor})
	}

	var tr engineTrace
	for di := 0; di < days; di++ {
		day := start.AddDays(di)

		// Morning churn: registrations, renewals, touches, transfers. Some
		// calls fail (wrong state, wrong sponsor) — identically on both
		// engines, since the worlds are identical.
		clock.Set(day.At(9, 0, 0))
		for j := 0; j < 3; j++ {
			name := fmt.Sprintf("new%03d-%d.com", di, j)
			sponsor := 1000 + rng.Intn(10)
			if _, err := s.CreateAt(name, sponsor, 1+rng.Intn(3), clock.Now()); err == nil {
				pool = append(pool, holding{name, sponsor})
			}
		}
		for j := 0; j < 4; j++ {
			h := pool[rng.Intn(len(pool))]
			switch rng.Intn(3) {
			case 0:
				s.Renew(h.name, h.sponsor, 1)
			case 1:
				s.TouchAt(h.name, h.sponsor, clock.Now())
			case 2:
				gaining := 1000 + rng.Intn(10)
				if code, err := s.AuthInfo(h.name, h.sponsor); err == nil {
					s.Transfer(h.name, gaining, code)
				}
			}
		}

		clock.Set(day.At(12, 0, 0))
		if scan {
			tr.tickCounts = append(tr.tickCounts, lc.tickScan(clock.Now()))
		} else {
			tr.tickCounts = append(tr.tickCounts, lc.Tick(clock.Now()))
		}

		// The published pending-delete window and the day's queue, recorded
		// before the Drop consumes it.
		window := s.PendingDeletions(day, 5)
		if ref := s.pendingDeletionsScan(day, 5); !slices.Equal(window, ref) {
			t.Errorf("day %v: PendingDeletions diverges from its scan reference (%d vs %d)", day, len(window), len(ref))
		}
		tr.pending = append(tr.pending, window)
		queue := runner.BuildQueue(day)
		if ref := runner.buildQueueScan(day); !reflect.DeepEqual(queue, ref) {
			t.Errorf("day %v: BuildQueue diverges from its scan reference (%d vs %d)", day, len(queue), len(ref))
		}
		tr.queues = append(tr.queues, queue)

		clock.Set(day.At(19, 0, 0))
		events, err := runner.Run(day, rand.New(rand.NewSource(seed+int64(1000+di))))
		if err != nil {
			t.Fatalf("day %v drop: %v", day, err)
		}
		tr.deletions = append(tr.deletions, events)
		tr.counts = append(tr.counts, s.StatusCounts())
	}

	s.Each(func(d *model.Domain) bool {
		tr.final = append(tr.final, *d)
		return true
	})
	slicesSortByName(tr.final)
	return tr, s
}

func slicesSortByName(ds []model.Domain) {
	for i := 1; i < len(ds); i++ {
		for j := i; j > 0 && ds[j].Name < ds[j-1].Name; j-- {
			ds[j], ds[j-1] = ds[j-1], ds[j]
		}
	}
}

// compareTraces asserts two engine traces are identical in every observable:
// transition counts, deletion queues, published windows, deletion event
// logs, status counts and final store contents, day by day.
func compareTraces(t *testing.T, days int, aName, bName string, a, b engineTrace) {
	t.Helper()
	if !reflect.DeepEqual(a.tickCounts, b.tickCounts) {
		t.Errorf("tick counts diverge:\n%s: %v\n%s: %v", aName, a.tickCounts, bName, b.tickCounts)
	}
	for d := 0; d < days; d++ {
		if !reflect.DeepEqual(a.queues[d], b.queues[d]) {
			t.Errorf("day %d: deletion queues diverge (%s %d entries, %s %d)", d, aName, len(a.queues[d]), bName, len(b.queues[d]))
		}
		if !reflect.DeepEqual(a.pending[d], b.pending[d]) {
			t.Errorf("day %d: PendingDeletions windows diverge (%s %d, %s %d)", d, aName, len(a.pending[d]), bName, len(b.pending[d]))
		}
		if !slices.EqualFunc(a.deletions[d], b.deletions[d], model.DeletionEvent.Equal) {
			t.Errorf("day %d: deletion events diverge (%s %d, %s %d)", d, aName, len(a.deletions[d]), bName, len(b.deletions[d]))
		}
		if !reflect.DeepEqual(a.counts[d], b.counts[d]) {
			t.Errorf("day %d: status counts diverge:\n%s: %v\n%s: %v", d, aName, a.counts[d], bName, b.counts[d])
		}
	}
	if !reflect.DeepEqual(a.final, b.final) {
		t.Errorf("final store contents diverge (%s %d domains, %s %d)", aName, len(a.final), bName, len(b.final))
	}
}

// requireLively fails the test when a trace is too quiet to make the
// differential comparison meaningful.
func requireLively(t *testing.T, days int, tr engineTrace) {
	t.Helper()
	ticks, dels := 0, 0
	for d := 0; d < days; d++ {
		ticks += tr.tickCounts[d]
		dels += len(tr.deletions[d])
	}
	if ticks < 100 || dels < 50 {
		t.Fatalf("run too quiet to be meaningful: %d transitions, %d deletions", ticks, dels)
	}
}

// TestIndexedMatchesScanEngine is the differential test: over several seeds,
// the due-day-indexed sweeps and the retained full-scan reference must
// produce identical transition counts, deletion queues, published windows,
// deletion event logs, status counts and final store contents, day by day.
func TestIndexedMatchesScanEngine(t *testing.T) {
	const days = 40
	for _, seed := range []int64{1, 7, 20180108} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			idx := runEngine(t, seed, days, false, 0)
			ref := runEngine(t, seed, days, true, 0)
			compareTraces(t, days, "indexed", "scan", idx, ref)
			requireLively(t, days, idx)
		})
	}
}

// TestShardedMatchesSingleShard is the shard-count differential test: the
// same multi-week drive against a 1-shard (classic single-lock), 4-shard and
// 16-shard store must leave identical traces — deletion queues, published
// windows, events, counts and final contents all byte-identical. Shard
// routing must be invisible everywhere outside lock contention.
func TestShardedMatchesSingleShard(t *testing.T) {
	const days = 40
	for _, seed := range []int64{1, 7, 20180108} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			single := runEngine(t, seed, days, false, 1)
			for _, shards := range []int{4, 16} {
				got := runEngine(t, seed, days, false, shards)
				compareTraces(t, days, "1-shard", fmt.Sprintf("%d-shard", shards), single, got)
			}
			requireLively(t, days, single)
		})
	}
}
