package registry

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"dropzero/internal/model"
	"dropzero/internal/simtime"
)

func TestNormalizeShardCount(t *testing.T) {
	cases := []struct{ in, want int }{
		{1, 1},
		{2, 2},
		{3, 4},
		{4, 4},
		{5, 8},
		{16, 16},
		{100, 128},
		{MaxShards, MaxShards},
		{MaxShards + 1, MaxShards},
		{1 << 20, MaxShards},
	}
	for _, c := range cases {
		if got := normalizeShardCount(c.in); got != c.want {
			t.Errorf("normalizeShardCount(%d) = %d, want %d", c.in, got, c.want)
		}
	}
	// The auto default must be a usable power of two.
	n := normalizeShardCount(0)
	if n < 1 || n > MaxShards || n&(n-1) != 0 {
		t.Fatalf("auto shard count %d is not a power of two in [1, %d]", n, MaxShards)
	}
	if got := NewStoreWithShards(testClock(), 5).ShardCount(); got != 8 {
		t.Fatalf("ShardCount after NewStoreWithShards(5) = %d, want 8", got)
	}
}

// TestShardRoutingCoversAllShards seeds enough distinct names that every
// shard of a 16-shard store ends up owning registrations — a canary against
// a routing bug that collapses the hash onto a few shards.
func TestShardRoutingCoversAllShards(t *testing.T) {
	s, _ := newStore(t, 16, 1)
	for i := 0; i < 600; i++ {
		if _, err := s.Create(fmt.Sprintf("route%04d.com", i), 1000, 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n := sh.tab.len()
		sh.mu.RUnlock()
		if n == 0 {
			t.Errorf("shard %d holds no registrations after 600 creates", i)
		}
	}
	if s.Count() != 600 {
		t.Fatalf("Count = %d, want 600", s.Count())
	}
}

// TestShardedStoreBasicOpsAt16 reruns the core single-domain operations on a
// deliberately over-sharded store: routing must be stable across Create,
// Get, Touch, Transfer, lifecycle transitions and purge.
func TestShardedStoreBasicOpsAt16(t *testing.T) {
	s, clock := newStore(t, 16, 2)

	d, err := s.Create("crossshard.com", 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := s.Get("crossshard.com"); err != nil || got.ID != d.ID {
		t.Fatalf("Get: %+v, %v", got, err)
	}
	code, err := s.AuthInfo("crossshard.com", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Transfer("crossshard.com", 1001, code); err != nil {
		t.Fatal(err)
	}
	if err := s.MarkRedemption("crossshard.com", 1001, clock.Now()); err != nil {
		t.Fatal(err)
	}
	day := simtime.DayOf(clock.Now()).AddDays(5)
	if err := s.MarkPendingDelete("crossshard.com", time.Time{}, day); err != nil {
		t.Fatal(err)
	}
	if got := s.PendingDeletions(day, 1); len(got) != 1 || got[0].Name != "crossshard.com" {
		t.Fatalf("PendingDeletions = %+v", got)
	}
	if _, err := s.purge("crossshard.com", day.At(19, 0, 0), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("crossshard.com"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after purge: %v", err)
	}
	if n := indexSize(s); n != 0 {
		t.Fatalf("index holds %d entries after purge, want 0", n)
	}
}

// TestConcurrentCreatesDuringDrop races EPP-style creates against a running
// Drop on a multi-shard store under -race: while the runner purges the day's
// queue in order, goroutines hammer Create on every queued name and on
// unrelated names. First-come-first-served must hold exactly — every purged
// name is won by at most one creator, every winner's create strictly follows
// the purge, and the store's indexes stay consistent.
func TestConcurrentCreatesDuringDrop(t *testing.T) {
	day := simtime.Day{Year: 2018, Month: time.March, Dom: 1}
	s, clock := newStore(t, 8, 4)
	clock.Set(day.At(18, 59, 0))
	NewLifecycle(s, DefaultLifecycleConfig())

	const nPending = 120
	names := make([]string, nPending)
	for i := range names {
		names[i] = fmt.Sprintf("race%04d.com", i)
		updated := day.AddDays(-35).At(6, 30, i%60)
		if _, err := s.SeedAt(names[i], 1000+i%4, updated.AddDate(-2, 0, 0), updated,
			updated.AddDate(0, 0, -30), model.StatusPendingDelete, day); err != nil {
			t.Fatal(err)
		}
	}

	runner := NewDropRunner(s, DropConfig{StartHour: 19, BaseRatePerSec: 10000})
	sched := runner.Schedule(day, rand.New(rand.NewSource(1)))
	if len(sched) != nPending {
		t.Fatalf("scheduled %d deletions, want %d", len(sched), nPending)
	}

	var wg sync.WaitGroup
	start := make(chan struct{})
	wins := make([]int, len(names)) // creator goroutine per name, -1 = none
	winsMu := sync.Mutex{}

	// Four racing creators, one per registrar, each sweeping the whole name
	// list repeatedly plus churning its own unrelated names.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for round := 0; round < 50; round++ {
				for i, name := range names {
					if _, err := s.CreateAt(name, 1000+g, 1, day.At(19, 0, 1)); err == nil {
						winsMu.Lock()
						wins[i]++
						winsMu.Unlock()
					} else if !errors.Is(err, ErrExists) {
						t.Errorf("create %s: %v", name, err)
					}
				}
				churn := fmt.Sprintf("churn-%d-%d.com", g, round)
				if _, err := s.CreateAt(churn, 1000+g, 1, day.At(19, 0, 1)); err != nil {
					t.Errorf("churn create %s: %v", churn, err)
				}
				s.Available(names[round%len(names)])
				s.Count()
			}
		}(g)
	}
	// The Drop itself, applying the schedule in deletion order.
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for _, sc := range sched {
			if _, err := runner.Apply(sc); err != nil {
				t.Errorf("apply %s: %v", sc.Name, err)
			}
		}
	}()
	close(start)
	wg.Wait()

	// FCFS: at most one create ever succeeded per purged name (rounds keep
	// retrying, so a second success would mean double registration).
	for i, n := range wins {
		if n > 1 {
			t.Errorf("%s was won %d times, want at most once", names[i], n)
		}
	}
	if evs := s.Deletions(day); len(evs) != nPending {
		t.Fatalf("Deletions recorded %d events, want %d", len(evs), nPending)
	}
	if n := indexSize(s); n != s.Count() {
		t.Fatalf("due index holds %d entries, store holds %d", n, s.Count())
	}
	// Every queued name must have been purged and is either unclaimed or
	// sponsored by the single winner.
	counts := s.StatusCounts()
	if counts[model.StatusPendingDelete] != 0 {
		t.Fatalf("still %d pendingDelete after the Drop", counts[model.StatusPendingDelete])
	}
}
