package dropscope

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"dropzero/internal/feed"
	"dropzero/internal/gctest"
	"dropzero/internal/inproc"
	"dropzero/internal/model"
	"dropzero/internal/registry"
	"dropzero/internal/simtime"
)

// TestClientDeltaCursorDifferential is the client-side acceptance test at
// the dropscope layer: a feed mirror holding a delta cursor from this
// server's /deltas (joining at an arbitrary generation) must render every
// published window byte-identically to the server's own /pendingdelete body
// at every checkpoint generation, across seeds, Drop days and
// re-registration flaps.
func TestClientDeltaCursorDifferential(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			day := simtime.Day{Year: 2018, Month: time.January, Dom: 10}
			clock := simtime.NewSimClock(day.At(9, 0, 0))
			store := registry.NewStore(clock)
			store.AddRegistrar(model.Registrar{IANAID: 1000})

			hub := feed.NewHub(feed.Options{})
			defer hub.Close()
			hub.PrimeFromStore(store)
			store.SetJournal(hub)

			scope := NewServer(store)
			scope.AttachFeed(hub)
			ts := httptest.NewServer(scope.Handler())
			defer ts.Close()

			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 25; i++ {
				seedPending(t, store, fmt.Sprintf("s%d-%d.com", seed, i), day.AddDays(rng.Intn(4)))
			}
			for i := 0; i < 15; i++ {
				updated := day.AddDays(-30).At(8, 0, 0)
				if _, err := store.SeedAt(fmt.Sprintf("a%d-%d.com", seed, i), 1000,
					updated.AddDate(-1, 0, 0), updated, updated.AddDate(1, 0, 0),
					model.StatusActive, simtime.Day{}); err != nil {
					t.Fatal(err)
				}
			}

			ctx := context.Background()
			var clients []*feed.Mirror
			addClient := func() {
				m := feed.NewMirror()
				if _, err := feed.SyncDeltas(ctx, nil, ts.URL, m); err != nil {
					t.Fatal(err)
				}
				clients = append(clients, m)
			}
			addClient() // joins after initial seeding

			serverBody := func(when simtime.Day) string {
				resp, err := http.Get(ts.URL + "/pendingdelete?date=" + when.String())
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				b, err := io.ReadAll(resp.Body)
				if err != nil {
					t.Fatal(err)
				}
				return string(b)
			}
			checkpoint := func(stage string, when simtime.Day) {
				hub.Quiesce()
				for i, m := range clients {
					if _, err := feed.SyncDeltas(ctx, nil, ts.URL, m); err != nil {
						t.Fatal(err)
					}
					var window []Entry
					for _, it := range m.Items() {
						if it.Day.Compare(when) >= 0 && it.Day.Compare(when.AddDays(LookaheadDays)) < 0 {
							window = append(window, mustEntry(t, it.Name, it.Day))
						}
					}
					got := string(RenderEntries(window))
					if want := serverBody(when); got != want {
						t.Fatalf("%s: client %d window %v diverges:\ncursor-applied:\n%s\nserver:\n%s",
							stage, i, when, got, want)
					}
				}
			}
			checkpoint("initial", day)

			runner := registry.NewDropRunner(store, registry.DefaultDropConfig())
			var purged []string
			for d := 0; d < 4; d++ {
				when := day.AddDays(d)
				clock.Set(when.At(10, 0, 0))

				for i := 0; i < 3; i++ {
					name := fmt.Sprintf("a%d-%d.com", seed, rng.Intn(15))
					// Repeated marks of the same name only move its day.
					if err := store.MarkPendingDelete(name, clock.Now(), when.AddDays(1+rng.Intn(2))); err != nil {
						t.Fatal(err)
					}
				}
				checkpoint("marks", when)

				events, err := runner.Run(when, rng)
				if err != nil {
					t.Fatal(err)
				}
				for _, ev := range events {
					purged = append(purged, ev.Name())
				}
				checkpoint("drop", when)

				// Re-registration flap: caught at the drop, immediately
				// deleted again by its new owner.
				for i := 0; i < 2 && len(purged) > 0; i++ {
					name := purged[len(purged)-1]
					purged = purged[:len(purged)-1]
					if _, err := store.CreateAt(name, 1000, 1, clock.Now()); err != nil {
						t.Fatal(err)
					}
					if i == 0 {
						if err := store.MarkPendingDelete(name, clock.Now(), when.AddDays(1)); err != nil {
							t.Fatal(err)
						}
					}
				}
				checkpoint("reregs", when)

				addClient() // a new client joins at this arbitrary generation
				checkpoint("joined", when.Next())
			}
		})
	}
}

// TestClosedServerIsCollectable: a dropscope server with a feed hub mounted,
// once both are closed, must not keep the store reachable — through the
// mux, the hub's broadcaster goroutine or the store's journal hook.
func TestClosedServerIsCollectable(t *testing.T) {
	gctest.Collected(t, func() *registry.Store {
		day := simtime.Day{Year: 2018, Month: time.January, Dom: 10}
		store := pendingStore(t, day, 0)
		hub := feed.NewHub(feed.Options{})
		hub.PrimeFromStore(store)
		store.SetJournal(hub)
		scope := NewServer(store)
		scope.AttachFeed(hub)
		seedPending(t, store, "collect.com", day)

		hc := inproc.Client(scope.Handler())
		client, err := NewClient("http://scope.test", hc)
		if err != nil {
			t.Fatal(err)
		}
		if entries, err := client.Fetch(context.Background(), day); err != nil || len(entries) != 1 {
			t.Fatalf("list: %d entries, %v", len(entries), err)
		}
		if _, err := feed.SyncDeltas(context.Background(), hc, "http://scope.test", feed.NewMirror()); err != nil {
			t.Fatal(err)
		}
		if err := scope.Close(); err != nil {
			t.Fatal(err)
		}
		hub.Close()
		return store
	})
}
