package feed

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dropzero/internal/journal"
	"dropzero/internal/model"
	"dropzero/internal/registry"
	"dropzero/internal/simtime"
)

// TestSubscriberChurnUnderDrop is the lock-ordering stress: SSE subscribers
// connect and disconnect while the Drop mutates the store (the feed tap runs
// inside the store's shard critical sections), the WAL group-commits, and
// the snapshotter captures consistent snapshots. Run under -race in CI; at
// quiescence the hub's materialised list must equal the store's.
func TestSubscriberChurnUnderDrop(t *testing.T) {
	day := simtime.Day{Year: 2018, Month: time.January, Dom: 10}
	clock := simtime.NewSimClock(day.At(9, 0, 0))
	store := registry.NewStore(clock)
	store.AddRegistrar(model.Registrar{IANAID: 1000})

	jnl, recov, err := journal.Open(store, journal.Options{Dir: t.TempDir(), Mode: journal.ModeAsync})
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	if !recov.Fresh() {
		t.Fatal("fresh dir expected")
	}

	hub := NewHub(Options{queueLen: 4}) // small queue: force slow-drop paths
	hub.PrimeFromStore(store)
	store.SetJournal(Tap{Inner: jnl, Hub: hub})
	defer hub.Close()

	mux := http.NewServeMux()
	hub.Register(mux, "")
	srv := httptest.NewServer(mux)
	defer srv.Close()

	seedName := func(i int) string { return fmt.Sprintf("churn%d.com", i) }
	for i := 0; i < 200; i++ {
		updated := day.AddDays(-35).At(6, 30, 0)
		st, dd := model.StatusActive, simtime.Day{}
		if i%2 == 0 {
			st, dd = model.StatusPendingDelete, day.AddDays(i%3)
		}
		if _, err := store.SeedAt(seedName(i), 1000, updated.AddDate(-2, 0, 0), updated,
			updated.AddDate(1, 0, 0), st, dd); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup

	// Mutator: the Drop plus a stream of marks, renews and re-registrations.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(42))
		runner := registry.NewDropRunner(store, registry.DefaultDropConfig())
		d := day
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			name := seedName(rng.Intn(200))
			switch i % 4 {
			case 0:
				store.MarkPendingDelete(name, clock.Now(), d.AddDays(rng.Intn(3)))
			case 1:
				store.Renew(name, 1000, 1)
			case 2:
				if _, err := runner.Run(d, rng); err == nil {
					d = d.Next()
					clock.Set(d.At(9, 0, 0))
				}
			case 3:
				store.CreateAt(fmt.Sprintf("fresh%d.com", i), 1000, 1, clock.Now())
			}
		}
	}()

	// Snapshotter: consistent snapshots while everything else runs.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(10 * time.Millisecond):
				if err := jnl.Snapshot(nil); err != nil {
					t.Errorf("snapshot: %v", err)
					return
				}
			}
		}
	}()

	// Subscriber churn: short-lived SSE streams connecting at random
	// cursors, reading a few events, hanging up.
	var events atomic.Uint64
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				since := int64(-1)
				if i%2 == 0 {
					since = int64(i % 5) // often stale → replay or reset paths
				}
				// The context dies with stop so a Next blocked on a quiet
				// stream cannot outlive the churn window.
				sub, err := Subscribe(ctx, nil, srv.URL, since, nil)
				if err != nil {
					continue // server shutting down
				}
				for n := 0; n < 3; n++ {
					if _, err := sub.Next(); err != nil {
						break
					}
					events.Add(1)
				}
				sub.Close()
			}
		}(w)
	}

	time.Sleep(500 * time.Millisecond)
	close(stop)
	cancel()
	wg.Wait()

	// Quiesce and compare: the hub's materialised list must match the store.
	hub.Quiesce()
	want := storePendingCSV(store)
	items, _ := hub.PendingItems()
	if got := renderItems(items); got != want {
		t.Fatalf("hub state diverged from store after churn:\nhub:\n%s\nstore:\n%s", got, want)
	}
	if events.Load() == 0 {
		t.Fatal("no events delivered during churn")
	}
	m := hub.Metrics()
	t.Logf("churn: records=%d batches=%d ops=%d subsTotal=%d slowDrops=%d resumes=%d resets=%d events=%d",
		m.Records, m.Batches, m.Ops, m.SubscribersTotal, m.SlowDrops, m.Resumes, m.Resets, events.Load())
}
