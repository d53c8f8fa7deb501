package dropscope

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"dropzero/internal/model"
	"dropzero/internal/registry"
	"dropzero/internal/simtime"
)

// BenchmarkListServe is a poller's GET /pendingdelete through the handler
// once its list is cached: warm answers the body, 304 revalidates it with
// the ETag warm was given. The writer keeps nothing and is reused, so only
// the handler's allocations are counted.
func BenchmarkListServe(b *testing.B) {
	day := simtime.Day{Year: 2018, Month: time.January, Dom: 10}
	store := registry.NewStore(simtime.NewSimClock(day.At(9, 0, 0)))
	store.AddRegistrar(model.Registrar{IANAID: 1000})
	for i := 0; i < 1000; i++ {
		del := day.AddDays(i % LookaheadDays)
		updated := del.AddDays(-35).At(6, 30, 0)
		if _, err := store.SeedAt(fmt.Sprintf("pending%04d.com", i), 1000, updated.AddDate(-2, 0, 0), updated,
			updated.AddDate(0, 0, -30), model.StatusPendingDelete, del); err != nil {
			b.Fatal(err)
		}
	}
	h := NewServer(store).Handler()
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
