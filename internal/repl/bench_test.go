package repl

import (
	"fmt"
	"testing"
	"time"

	"dropzero/internal/journal"
	"dropzero/internal/model"
	"dropzero/internal/registry"
	"dropzero/internal/simtime"
)

// benchPrimary builds a primary with n seeded domains plus a churn burst,
// using an async journal so setup is group-committed, then syncs.
func benchPrimary(b *testing.B, dir string, n int) (*registry.Store, *journal.Journal, []string) {
	b.Helper()
	store := registry.NewStore(simtime.NewSimClock(testStart.At(0, 0, 0)))
	jnl, _, err := journal.Open(store, journal.Options{Dir: dir, Mode: journal.ModeAsync})
	if err != nil {
		b.Fatal(err)
	}
	store.SetJournal(jnl)
	store.AddRegistrar(model.Registrar{IANAID: testRegistrar, Name: "Repl Bench Registrar"})
	names := make([]string, 0, n)
	dropDay := testStart.AddDays(3)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("repl-bench-%06d.com", i)
		at := testStart.At(1, 0, i%60)
		if _, err := store.CreateAt(name, testRegistrar, 1, at); err != nil {
			b.Fatal(err)
		}
		if i%5 == 0 {
			if err := store.MarkPendingDelete(name, at.Add(time.Hour), dropDay); err != nil {
				b.Fatal(err)
			}
		}
		names = append(names, name)
	}
	at := testStart.At(5, 0, 0)
	for _, name := range names {
		if err := store.TouchAt(name, testRegistrar, at); err != nil {
			b.Fatal(err)
		}
	}
	if err := jnl.Sync(); err != nil {
		b.Fatal(err)
	}
	return store, jnl, names
}

// BenchmarkReplicationCatchup measures end-to-end shipped-log throughput: a
// fresh follower bootstrapping the primary's full history over an
// in-process pipe — frame validation, local persistence with fsync, and
// batched apply included. The acceptance floor for the apply loop alone is
// 200k records/sec (BenchmarkReplicaApply in internal/registry); this
// number includes the wire and the disk.
func BenchmarkReplicationCatchup(b *testing.B) {
	const domains = 40_000 // ~80k records with the touch burst
	_, jnl, _ := benchPrimary(b, b.TempDir(), domains)
	defer jnl.Close()
	src := NewSource(jnl, SourceConfig{})
	defer src.Close()
	total := jnl.LastSeq()

	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		fstore := registry.NewStore(simtime.NewSimClock(testStart.At(0, 0, 0)))
		f, err := NewFollower(fstore, FollowerConfig{Dir: b.TempDir(), Dial: pipeDialer(src, nil)})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		t0 := time.Now()
		f.Start()
		for f.AppliedSeq() < total {
			if err := f.Err(); err != nil {
				b.Fatal(err)
			}
			time.Sleep(time.Millisecond)
		}
		b.ReportMetric(float64(total)/time.Since(t0).Seconds(), "records/sec")
		b.StopTimer()
		f.Close()
		b.StartTimer()
	}
}

// BenchmarkReplicaBootstrap measures a fresh replica's time-to-first-serve
// through the snapshot path: the primary holds a v2 snapshot covering ~95%
// of its history plus a WAL tail, and the follower must ship the snapshot,
// restore it in parallel, then catch up the tail before it counts as a hot
// spare. Contrast with BenchmarkReplicationCatchup, which replays the whole
// history record by record.
func BenchmarkReplicaBootstrap(b *testing.B) {
	const domains = 40_000
	store, jnl, names := benchPrimary(b, b.TempDir(), domains)
	defer jnl.Close()
	if err := jnl.Snapshot(nil); err != nil {
		b.Fatal(err)
	}
	at := testStart.At(6, 0, 0)
	for i := 0; i < 4_000; i++ {
		if err := store.TouchAt(names[i%len(names)], testRegistrar, at); err != nil {
			b.Fatal(err)
		}
	}
	if err := jnl.Sync(); err != nil {
		b.Fatal(err)
	}
	src := NewSource(jnl, SourceConfig{})
	defer src.Close()
	total := jnl.LastSeq()

	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		fstore := registry.NewStore(simtime.NewSimClock(testStart.At(0, 0, 0)))
		f, err := NewFollower(fstore, FollowerConfig{Dir: b.TempDir(), Dial: pipeDialer(src, nil)})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		t0 := time.Now()
		f.Start()
		for f.AppliedSeq() < total {
			if err := f.Err(); err != nil {
				b.Fatal(err)
			}
			time.Sleep(time.Millisecond)
		}
		ttfs := time.Since(t0)
		b.ReportMetric(ttfs.Seconds()*1000, "ttfs_ms")
		b.ReportMetric(float64(domains)/ttfs.Seconds(), "domains/sec")
		b.StopTimer()
		f.Close()
		b.StartTimer()
	}
}
