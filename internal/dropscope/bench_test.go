package dropscope

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"dropzero/internal/inproc"
	"dropzero/internal/model"
	"dropzero/internal/registry"
	"dropzero/internal/simtime"
)

// pendingStore is a store holding n pending names spread evenly over the
// five days of day's list, sponsored by registrar 1000.
func pendingStore(tb testing.TB, day simtime.Day, n int) *registry.Store {
	tb.Helper()
	store := registry.NewStore(simtime.NewSimClock(day.At(9, 0, 0)))
	store.AddRegistrar(model.Registrar{IANAID: 1000})
	for i := 0; i < n; i++ {
		del := day.AddDays(i % LookaheadDays)
		updated := del.AddDays(-35).At(6, 30, 0)
		if _, err := store.SeedAt(fmt.Sprintf("pending%04d.com", i), 1000, updated.AddDate(-2, 0, 0), updated,
			updated.AddDate(0, 0, -30), model.StatusPendingDelete, del); err != nil {
			tb.Fatal(err)
		}
	}
	return store
}

// BenchmarkListServe is a poller's GET /pendingdelete through the handler
// once its list is cached: warm answers the body, 304 revalidates it with
// the ETag warm was given. The writer keeps nothing and is reused, so only
// the handler's allocations are counted.
func BenchmarkListServe(b *testing.B) {
	day := simtime.Day{Year: 2018, Month: time.January, Dom: 10}
	h := NewServer(pendingStore(b, day, 1000)).Handler()
	req := httptest.NewRequest(http.MethodGet, "/pendingdelete?date="+day.String(), nil)
	w := &sinkWriter{h: make(http.Header)}
	h.ServeHTTP(w, req) // fills the cache
	cond := httptest.NewRequest(http.MethodGet, req.URL.String(), nil)
	cond.Header.Set("If-None-Match", w.h.Get("ETag"))
	for _, c := range []struct {
		name   string
		req    *http.Request
		status int
	}{{"warm", req, http.StatusOK}, {"304", cond, http.StatusNotModified}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				clear(w.h)
				w.status, w.n = 0, 0
				h.ServeHTTP(w, c.req)
				if w.status != c.status {
					b.Fatalf("answered %d, want %d", w.status, c.status)
				}
			}
			b.ReportMetric(float64(w.n), "bytes_served/op")
		})
	}
}

// BenchmarkListFetch is one client's fetch of a 5 000-name list after a
// store mutation, as a study day makes one: bound takes the entries from the
// store; http renders the list, sends it over the in-process transport and
// parses it.
func BenchmarkListFetch(b *testing.B) {
	day := simtime.Day{Year: 2018, Month: time.January, Dom: 10}
	store := pendingStore(b, day, 5000)
	if _, err := store.Create("bump.com", 1000, 1); err != nil {
		b.Fatal(err)
	}
	srv := NewServer(store)
	overHTTP, err := NewClient("http://scope.bench", inproc.Client(srv.Handler()))
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		client *Client
	}{{"bound", NewBoundClient(srv)}, {"http", overHTTP}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := store.Touch("bump.com", 1000); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if entries, err := c.client.Fetch(context.Background(), day); err != nil || len(entries) != 5000 {
					b.Fatalf("%d entries, %v", len(entries), err)
				}
			}
		})
	}
}

// TestBoundFetchAllocsDoNotGrow: a bound fetch allocates the same at 1 000
// and at 10 000 names — the entries' slice, not a string per name.
func TestBoundFetchAllocsDoNotGrow(t *testing.T) {
	day := simtime.Day{Year: 2018, Month: time.January, Dom: 10}
	var allocs [2]float64
	for i, n := range []int{1000, 10000} {
		client := NewBoundClient(NewServer(pendingStore(t, day, n)))
		allocs[i] = testing.AllocsPerRun(20, func() {
			if entries, err := client.Fetch(context.Background(), day); err != nil || len(entries) != n {
				t.Fatalf("%d entries, %v", len(entries), err)
			}
		})
	}
	if allocs[0] != allocs[1] || allocs[1] > 1 {
		t.Fatalf("bound fetch allocations: %.0f at 1 000 names, %.0f at 10 000 (want equal, at most 1)", allocs[0], allocs[1])
	}
}

// sinkWriter is a ResponseWriter that counts the body it is given and keeps
// none of it.
type sinkWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *sinkWriter) Header() http.Header { return w.h }

func (w *sinkWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
}

func (w *sinkWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	w.n += len(p)
	return len(p), nil
}
