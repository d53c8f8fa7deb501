package registry

import (
	"runtime"
	"strconv"
	"testing"
	"time"

	"dropzero/internal/model"
	"dropzero/internal/simtime"
)

// bytesPerDomainBudget is the live-heap ceiling for one stored registration,
// everything included: the record's slab slot, name bytes, name-index slot
// and, for the short-lived states, a due-bucket ref. 64.1 B measured at 1
// shard, 66.2 at 8.
const bytesPerDomainBudget = 72

func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// seedStatusMix fills s, a newStore with two registrars, with population
// registrations in the status mix cmd/dropbench's node uses (14 active :
// 3 autoRenew : 2 redemption : 1 pendingDelete).
func seedStatusMix(tb testing.TB, s *Store, now time.Time, population int) {
	tb.Helper()
	today := simtime.DayOf(now)
	for i := 0; i < population; i++ {
		name := "budget-domain-" + strconv.Itoa(i) + ".com"
		sponsor := 1000 + i%2
		var err error
		switch {
		case i%20 < 14:
			created := now.AddDate(-1-i%5, 0, -(i % 300))
			_, err = s.SeedAt(name, sponsor, created, created, created.AddDate(1+i%5, 0, 0), model.StatusActive, simtime.Day{})
		case i%20 < 17:
			expiry := now.AddDate(0, 0, -(i % 20))
			_, err = s.SeedAt(name, sponsor, now.AddDate(-2, 0, -(i%30)), expiry, expiry.AddDate(1, 0, 0), model.StatusAutoRenew, simtime.Day{})
		case i%20 < 19:
			updated := now.AddDate(0, 0, -(i % 25))
			_, err = s.SeedAt(name, sponsor, now.AddDate(-3, 0, 0), updated, updated.AddDate(0, 0, -35), model.StatusRedemption, simtime.Day{})
		default:
			updated := now.AddDate(0, 0, -33)
			_, err = s.SeedAt(name, sponsor, now.AddDate(-2, 0, 0), updated, updated.AddDate(0, 0, -35), model.StatusPendingDelete, today.AddDays(1+i%4))
		}
		if err != nil {
			tb.Fatal(err)
		}
	}
}

// TestBytesPerDomainBudget seeds 100k registrations in dropbench's status
// mix and fails when the store's live heap per registration exceeds the
// budget, so a footprint regression shows up in go test without running the
// benchmark.
func TestBytesPerDomainBudget(t *testing.T) {
	const population = 100_000
	for _, shards := range []int{1, 8} {
		t.Run(strconv.Itoa(shards)+"shards", func(t *testing.T) {
			s, clock := newStore(t, shards, 2)
			before := liveHeap()
			seedStatusMix(t, s, clock.Now(), population)
			per := (float64(liveHeap()) - float64(before)) / population
			runtime.KeepAlive(s)
			t.Logf("%d shards: %.1f B/domain", shards, per)
			if per > bytesPerDomainBudget {
				t.Fatalf("store costs %.1f B/domain, budget %d", per, bytesPerDomainBudget)
			}
			if s.Count() != population {
				t.Fatalf("Count = %d, want %d", s.Count(), population)
			}
		})
	}
}

var storeBuildSink int

// BenchmarkStoreBuild is the store's bulk cost at the benchmark harness's
// population: 400 k seeds in its status mix, then 400 k hits through Get
// and 400 k misses through Available, then one forced collection over the
// finished store — the cycle every later GC of a serving process repeats.
// Hits and misses are timed apart: a hit stops at the first slot whose tag
// and name match, a miss walks its probe run to an empty slot. Lookup names
// are built per call so that nothing but the store is live when the
// collection runs.
func BenchmarkStoreBuild(b *testing.B) {
	const population = 400_000
	var insert, hit, miss, gc time.Duration
	var heap float64
	for i := 0; i < b.N; i++ {
		s, clock := newStore(b, 2, 2)
		before := liveHeap()

		start := time.Now()
		seedStatusMix(b, s, clock.Now(), population)
		insert += time.Since(start)

		start = time.Now()
		for j := 0; j < population; j++ {
			if d, err := s.Get("budget-domain-" + strconv.Itoa(j) + ".com"); err == nil {
				storeBuildSink += int(d.ID)
			}
		}
		hit += time.Since(start)
		if storeBuildSink == 0 {
			b.Fatal("no lookup hit")
		}

		start = time.Now()
		for j := 0; j < population; j++ {
			if free, _ := s.Available("absent-domain-" + strconv.Itoa(j) + ".com"); free {
				storeBuildSink++
			}
		}
		miss += time.Since(start)

		start = time.Now()
		runtime.GC()
		gc += time.Since(start)
		heap += float64(liveHeap()) - float64(before)
		runtime.KeepAlive(s)
	}
	n := float64(b.N)
	b.ReportMetric(float64(insert.Nanoseconds())/n/population, "ns/insert")
	b.ReportMetric(float64(hit.Nanoseconds())/n/population, "ns/hit")
	b.ReportMetric(float64(miss.Nanoseconds())/n/population, "ns/miss")
	b.ReportMetric(heap/n/population, "B/domain")
	b.ReportMetric(float64(gc.Microseconds())/n/1000, "gc-ms")
}
