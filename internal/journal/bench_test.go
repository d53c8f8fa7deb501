package journal

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"dropzero/internal/model"
	"dropzero/internal/registry"
	"dropzero/internal/simtime"
)

// BenchmarkWALAppend measures EPP create throughput per durability mode: no
// journal at all (the pre-durability baseline), async group commit (the
// production default) and fully synchronous appends. The acceptance bar is
// async within 2× of off — the journal must not give back the Drop-second
// throughput the sharded store bought.
func BenchmarkWALAppend(b *testing.B) {
	start := simtime.Day{Year: 2018, Month: time.January, Dom: 8}
	for _, mode := range []Mode{ModeOff, ModeAsync, ModeSync} {
		b.Run(mode.String(), func(b *testing.B) {
			s := registry.NewStore(simtime.NewSimClock(start.At(0, 0, 0)))
			s.AddRegistrar(model.Registrar{IANAID: 900, Name: "Bench Reg"})
			if mode != ModeOff {
				j, _, err := Open(s, Options{Dir: b.TempDir(), Mode: mode})
				if err != nil {
					b.Fatal(err)
				}
				defer j.Close()
				s.SetJournal(j)
			}
			at := start.At(10, 0, 0)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				id := rand.Int63()
				i := 0
				for pb.Next() {
					name := fmt.Sprintf("wa%x-%d.com", id, i)
					i++
					if _, err := s.CreateAt(name, 900, 1, at); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// buildRecoveryDir populates a journal directory with n domains, a snapshot
// at 90% of the population and a WAL tail holding the remaining 10% — the
// shape a crash between periodic snapshots produces. It returns the
// directory and the snapshot's covered sequence.
func buildRecoveryDir(b *testing.B, n int) (string, uint64) {
	b.Helper()
	dir := b.TempDir()
	s, j, _ := journaled(b, dir, 0, Options{Mode: ModeAsync})
	s.AddRegistrar(model.Registrar{IANAID: 900, Name: "Bench Reg"})
	at := testStart.At(10, 0, 0)
	snapAt := n - n/10
	var snapSeq uint64
	for i := 0; i < n; i++ {
		if _, err := s.CreateAt(fmt.Sprintf("rc%07d.com", i), 900, 1, at); err != nil {
			b.Fatal(err)
		}
		if i == snapAt {
			if err := j.Snapshot(nil); err != nil {
				b.Fatal(err)
			}
			snapSeq = j.LastSeq()
		}
	}
	if err := j.Close(); err != nil {
		b.Fatal(err)
	}
	return dir, snapSeq
}

// BenchmarkRecovery measures cold-start recovery of a populated store —
// snapshot load plus WAL tail replay — at 100k and (without -short) 1M
// domains, at RecoveryParallelism 1 (restore and replay on the calling
// goroutine) and with a worker per core. The ratio between the two only
// shows on multi-core runs (-cpu 4 in CI).
func BenchmarkRecovery(b *testing.B) {
	start := simtime.Day{Year: 2018, Month: time.January, Dom: 8}
	sizes := []int{100_000, 1_000_000}
	if testing.Short() {
		sizes = []int{100_000}
	}
	for _, n := range sizes {
		dir, _ := buildRecoveryDir(b, n)
		for _, v := range []struct {
			name        string
			parallelism int
		}{
			{"v2-seq", 1},
			{"v2-parallel", 0},
		} {
			b.Run(fmt.Sprintf("domains=%d/%s", n, v.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					s2 := registry.NewStore(simtime.NewSimClock(start.At(0, 0, 0)))
					t0 := time.Now()
					j2, rec, err := Open(s2, Options{Dir: dir, Mode: ModeAsync, RecoveryParallelism: v.parallelism})
					if err != nil {
						b.Fatal(err)
					}
					elapsed := time.Since(t0)
					if s2.Count() != n {
						b.Fatalf("recovered %d domains, want %d", s2.Count(), n)
					}
					b.ReportMetric(float64(rec.ReplayedRecords), "replayed/op")
					b.ReportMetric(float64(n)/elapsed.Seconds(), "domains/sec")
					j2.Close()
				}
			})
		}
	}
}

// BenchmarkSnapshotCapture measures producing one snapshot of a 200k-domain
// store — capture, encode and the atomic file write — as Journal.Snapshot
// does it: sections encoded straight from the shards, on one worker and on
// one per core. Run with -benchmem: B/op is the snapshot's transient
// footprint.
func BenchmarkSnapshotCapture(b *testing.B) {
	const n = 200_000
	start := simtime.Day{Year: 2018, Month: time.January, Dom: 8}
	s := registry.NewStoreWithShards(simtime.NewSimClock(start.At(0, 0, 0)), 8)
	s.AddRegistrar(model.Registrar{IANAID: 900, Name: "Bench Reg"})
	at := start.At(10, 0, 0)
	for i := 0; i < n; i++ {
		if _, err := s.CreateAt(fmt.Sprintf("sc%07d.com", i), 900, 1, at); err != nil {
			b.Fatal(err)
		}
	}
	for _, v := range []struct {
		name    string
		workers int
	}{{"v2-seq", 1}, {"v2-parallel", 0}} {
		b.Run(v.name, func(b *testing.B) {
			dir := b.TempDir()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				writeSinglePass(b, s, dir, 1, nil, v.workers)
			}
		})
	}
}

// BenchmarkSnapshotInstall installs one fixed snapshot — 50 000 created
// registrations, each with its transfer code, and a 5 000-event deletion
// archive — into a fresh 8-shard store on one worker: parse, decode and
// install as journal.Open and a follower's bootstrap run them. Its
// allocs/op is the restore's allocation count, which CI gates. The
// collector is off while the installs are counted: a GC cycle makes
// allocations of its own, and how many cycles an install takes varies.
func BenchmarkSnapshotInstall(b *testing.B) {
	const n, purged = 50_000, 5_000
	start := simtime.Day{Year: 2018, Month: time.January, Dom: 8}
	s := registry.NewStoreWithShards(simtime.NewSimClock(start.At(0, 0, 0)), 8)
	s.AddRegistrar(model.Registrar{IANAID: 900, Name: "Bench Reg"})
	at := start.At(10, 0, 0)
	for i := 0; i < n; i++ {
		if _, err := s.CreateAt(fmt.Sprintf("si%07d.com", i), 900, 1, at); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < purged; i++ {
		if _, err := s.SeedAt(fmt.Sprintf("gone%06d.net", i), 900, at, at, at, model.StatusPendingDelete, start.AddDays(1)); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := registry.NewDropRunner(s, registry.DefaultDropConfig()).Run(start.AddDays(1), rand.New(rand.NewSource(1))); err != nil {
		b.Fatal(err)
	}
	var img snapImage
	s.ReadSnapshot(func(r *registry.SnapshotReader) { img.encode(r, 1, nil, 1) })
	path, err := img.write(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		b.Fatal(err)
	}
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		restored := registry.NewStoreWithShards(simtime.NewSimClock(start.At(0, 0, 0)), 8)
		if _, err := restoreShipped(restored, data, 1); err != nil {
			b.Fatal(err)
		}
		if restored.Count() != n {
			b.Fatalf("restored %d domains, want %d", restored.Count(), n)
		}
	}
}
