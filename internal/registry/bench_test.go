package registry

import (
	"fmt"
	"testing"
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
