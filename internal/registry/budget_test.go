package registry

import (
	"runtime"
	"strconv"
	"testing"

	"dropzero/internal/model"
	"dropzero/internal/simtime"
)

// bytesPerDomainBudget is the live-heap ceiling for one stored registration,
// everything included: record, name bytes, name-map slot, due-bucket slot.
const bytesPerDomainBudget = 180

func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestBytesPerDomainBudget seeds 100k registrations in the status mix
// cmd/dropbench's node uses and fails when the store's live heap per
// registration exceeds the budget, so a footprint regression shows up in
// go test without running the benchmark.
func TestBytesPerDomainBudget(t *testing.T) {
	const population = 100_000
	for _, shards := range []int{1, 8} {
		t.Run(strconv.Itoa(shards)+"shards", func(t *testing.T) {
			clock := testClock()
			s := NewStoreWithShards(clock, shards)
			s.AddRegistrar(model.Registrar{IANAID: 1000, Name: "A"})
			s.AddRegistrar(model.Registrar{IANAID: 1001, Name: "B"})
			now := clock.Now()
			today := simtime.DayOf(now)

			before := liveHeap()
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
					t.Fatal(err)
				}
			}
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
