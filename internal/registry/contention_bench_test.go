package registry

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"dropzero/internal/model"
	"dropzero/internal/simtime"
)

// newContentionStore builds a store with a live registered population, so
// the contended operations run against realistically loaded shard maps, not
// empty ones, and returns the population's names.
func newContentionStore(b *testing.B, shards int) (*Store, simtime.Day, []string) {
	b.Helper()
	day := simtime.Day{Year: 2018, Month: time.March, Dom: 1}
	clock := simtime.NewSimClock(day.At(19, 0, 0))
	s := NewStoreWithShards(clock, shards)
	for r := 0; r < 8; r++ {
		s.AddRegistrar(model.Registrar{IANAID: 1000 + r, Name: fmt.Sprintf("Bench %d", r)})
	}
	created := day.AddDays(-400).At(3, 0, 0)
	live := make([]string, 10_000)
	for i := range live {
		live[i] = fmt.Sprintf("bench-live%05d.com", i)
		if _, err := s.SeedAt(live[i], 1000+i%8,
			created, created, created.AddDate(2, 0, 0), model.StatusActive, simtime.Day{}); err != nil {
			b.Fatal(err)
		}
	}
	return s, day, live
}

// BenchmarkEPPCreateContention is the Drop-second hot path under full
// contention: every processor hammers the store with the check+create
// sequence a drop-catch registrar issues when names start deleting. With one
// shard every create serialises on a single mutex; with eight, creates on
// different names proceed in parallel and throughput should scale with cores
// (the spread is invisible at GOMAXPROCS=1 — run on a multicore host, as CI
// does for BENCH.json).
//
// The losers and hot legs are the Drop's other 99.95 %: every create names a
// taken registration — spread over the population, or all on one name — and
// is refused with the bare ErrExists under the shard's read lock. CI's gate
// holds both to 0 allocs/op.
func BenchmarkEPPCreateContention(b *testing.B) {
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("winners/shards=%d", shards), func(b *testing.B) {
			s, day, _ := newContentionStore(b, shards)
			at := day.At(19, 0, 1)
			var worker atomic.Uint64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				w := worker.Add(1)
				i := 0
				for pb.Next() {
					name := fmt.Sprintf("drop%d-%d.com", w, i)
					if avail, _ := s.Available(name); !avail {
						b.Errorf("%s unexpectedly taken", name)
					}
					if _, err := s.CreateAt(name, 1000+int(w%8), 1, at); err != nil {
						b.Errorf("create %s: %v", name, err)
					}
					if avail, _ := s.Available(name); avail {
						b.Errorf("%s still available after create", name)
					}
					i++
				}
			})
		})
	}
	for _, leg := range []struct {
		name  string
		names func(live []string) []string
	}{
		{"losers", func(live []string) []string { return live }},
		{"hot", func(live []string) []string { return live[:1] }},
	} {
		for _, shards := range []int{1, 8} {
			b.Run(fmt.Sprintf("%s/shards=%d", leg.name, shards), func(b *testing.B) {
				s, day, live := newContentionStore(b, shards)
				taken, at := leg.names(live), day.At(19, 0, 1)
				var worker atomic.Uint64
				b.ReportAllocs()
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					w := int(worker.Add(1))
					for i := w * 7919; pb.Next(); i++ {
						if _, err := s.CreateAt(taken[i%len(taken)], 1000+w%8, 1, at); err != ErrExists {
							b.Errorf("create %s: %v, want ErrExists", taken[i%len(taken)], err)
						}
					}
				})
			})
		}
	}
}
