package registry

import (
	"fmt"
	"testing"
	"time"

	"dropzero/internal/model"
	"dropzero/internal/simtime"
)

// BenchmarkDailySweep measures one simulated registry day's worth of sweep
// work — Lifecycle.Tick, DropRunner.BuildQueue and Store.PendingDeletions —
// against stores of increasing size, with the due-day-indexed engine and the
// full-scan reference side by side. The population is the realistic worst
// case for a scan: almost everything is a live registration with a future
// expiry that the day's sweeps must not touch, plus ~300 pending deletions
// that are the actual due work. The indexed engine's cost tracks the latter;
// the scan's tracks the former.
//
// Nothing is due at noon, so Tick never mutates and every iteration sees the
// same store.
func BenchmarkDailySweep(b *testing.B) {
	for _, size := range []int{100_000, 1_000_000} {
		s, lc, runner, today := sweepWorld(b, size, 60)
		now := today.At(12, 0, 0)
		if n := lc.Tick(now); n != 0 {
			b.Fatalf("Tick transitioned %d domains; the benchmark needs an idle store", n)
		}
		for _, eng := range []struct {
			name  string
			sweep func()
		}{
			{"indexed", func() { lc.Tick(now); runner.BuildQueue(today); s.PendingDeletions(today, 5) }},
			{"scan", func() { lc.tickScan(now); runner.buildQueueScan(today); s.pendingDeletionsScan(today, 5) }},
		} {
			b.Run(fmt.Sprintf("store=%d/engine=%s", size, eng.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					eng.sweep()
				}
			})
		}
	}
}

// BenchmarkPendingDeletions lists a five-day window of 60 000 pending
// deletions over 1 and 8 shards, the size of the study's lists at scale
// 0.25. The names are spelled from a hash of their index, so neither a
// bucket nor a shard walk hands them over in name order.
func BenchmarkPendingDeletions(b *testing.B) {
	const perDay = 12_000
	today := simtime.Day{Year: 2018, Month: time.March, Dom: 1}
	for _, shards := range []int{1, 8} {
		s := NewStoreWithShards(simtime.NewSimClock(today.At(12, 0, 0)), shards)
		s.AddRegistrar(model.Registrar{IANAID: 1000, Name: "R"})
		updated := today.AddDays(-35).At(6, 30, 0)
		for i := 0; i < 5*perDay; i++ {
			name := fmt.Sprintf("p%016x.com", uint64(i)*0x9e3779b97f4a7c15)
			if _, err := s.SeedAt(name, 1000, updated.AddDate(-2, 0, 0), updated,
				updated.AddDate(0, 0, -30), model.StatusPendingDelete, today.AddDays(i%5)); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := s.PendingDeletions(today, 5); len(got) != 5*perDay {
					b.Fatalf("%d names listed", len(got))
				}
			}
		})
	}
}

// BenchmarkTick times Lifecycle.Tick over 1 M active registrations, half of
// them expired at the tick's instant. first is the catch-up tick that walks
// every chunk and moves the expired half to autoRenew, on a store built
// afresh each iteration (outside the timer); steady is a tick once the
// chunk bounds have caught up, when nothing is newly due: the active pass
// reads one bound per chunk and walks none.
func BenchmarkTick(b *testing.B) {
	const population = 1_000_000
	today := simtime.Day{Year: 2018, Month: time.March, Dom: 1}
	now := today.At(12, 0, 0)
	build := func() (*Store, *Lifecycle) {
		s := NewStoreWithShards(simtime.NewSimClock(now), 2)
		for r := 0; r < 10; r++ {
			s.AddRegistrar(model.Registrar{IANAID: 1000 + r, Name: fmt.Sprintf("R%d", r)})
		}
		lc := NewLifecycle(s, DefaultLifecycleConfig())
		for i := 0; i < population; i++ {
			expiry := now.Add(time.Duration(1+i%300) * 24 * time.Hour)
			if i%2 == 0 {
				expiry = now.Add(-time.Duration(1+i%300) * time.Minute)
			}
			if _, err := s.SeedAt(fmt.Sprintf("tick%07d.com", i), 1000+i%10, expiry.AddDate(-1, 0, 0), expiry.AddDate(-1, 0, 0),
				expiry, model.StatusActive, simtime.Day{}); err != nil {
				b.Fatal(err)
			}
		}
		return s, lc
	}
	b.Run("first", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			_, lc := build()
			b.StartTimer()
			if n := lc.Tick(now); n != population/2 {
				b.Fatalf("first tick moved %d, want %d", n, population/2)
			}
		}
	})
	b.Run("steady", func(b *testing.B) {
		_, lc := build()
		lc.Tick(now)
		lc.Tick(now)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if n := lc.Tick(now); n != 0 {
				b.Fatalf("steady tick moved %d", n)
			}
		}
	})
}
