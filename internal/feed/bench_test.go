package feed

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dropzero/internal/gencache"
	"dropzero/internal/loadgen"
	"dropzero/internal/model"
	"dropzero/internal/registry"
	"dropzero/internal/simtime"
)

// memListener is an in-process net.Listener over net.Pipe: real streaming
// HTTP (SSE needs a Flusher the recorder-based inproc transport cannot
// give) without consuming file descriptors, so benchmarks can hold 10k+
// concurrent streams.
type memListener struct {
	ch   chan net.Conn
	done chan struct{}
	once sync.Once
}

func newMemListener() *memListener {
	return &memListener{ch: make(chan net.Conn), done: make(chan struct{})}
}

func (l *memListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.ch:
		return c, nil
	case <-l.done:
		return nil, errors.New("memListener closed")
	}
}

func (l *memListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *memListener) Addr() net.Addr {
	return &net.UnixAddr{Name: "mem", Net: "mem"}
}

// Dial is the client side: one pipe per connection.
func (l *memListener) Dial(ctx context.Context, _, _ string) (net.Conn, error) {
	server, client := net.Pipe()
	select {
	case l.ch <- server:
		return client, nil
	case <-l.done:
		return nil, errors.New("memListener closed")
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// memServer mounts the hub's endpoints on an in-memory listener and returns
// a client wired to it.
func memServer(hub *Hub) (*http.Client, func()) {
	ln := newMemListener()
	mux := http.NewServeMux()
	hub.Register(mux, "")
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	hc := &http.Client{Transport: &http.Transport{DialContext: ln.Dial}}
	return hc, func() {
		srv.Close()
		ln.Close()
	}
}

func benchHub(b *testing.B, pending int, opt Options) *Hub {
	b.Helper()
	h := NewHub(opt)
	b.Cleanup(h.Close)
	day := simtime.Day{Year: 2018, Month: time.January, Dom: 10}
	h.ringMu.Lock()
	for i := 0; i < pending; i++ {
		v, _ := day.AddDays(i % 30).Pack()
		h.pending[fmt.Sprintf("pending%06d.example", i)] = v
	}
	h.ringMu.Unlock()
	return h
}

func benchOps(n int) []Op {
	day := simtime.Day{Year: 2018, Month: time.January, Dom: 12}
	ops := make([]Op, n)
	for i := range ops {
		switch i % 3 {
		case 0:
			ops[i] = Op{Kind: OpAdd, Name: fmt.Sprintf("added%06d.example", i), Day: day}
		case 1:
			ops[i] = Op{Kind: OpPurge, Name: fmt.Sprintf("dropped%06d.example", i)}
		default:
			ops[i] = Op{Kind: OpRereg, Name: fmt.Sprintf("caught%06d.example", i)}
		}
	}
	return ops
}

// BenchmarkDeltaServe contrasts what each poll costs to assemble: a delta
// response renders the ops of the segments after the cursor — O(changes) —
// while a full-list render walks and sorts the whole pending set — O(n).
// Cache assembly is forced every iteration (fresh cache) so the render path
// itself is measured; bytes_served/op shows the payload asymmetry. http is
// the warm path a poller takes: a cached /deltas answered through the
// handler, into a writer that keeps nothing.
func BenchmarkDeltaServe(b *testing.B) {
	const pendingN, opsN = 10_000, 100
	newHub := func(b *testing.B) *Hub {
		h := benchHub(b, pendingN, Options{})
		seg := renderSegment(1, uint64(opsN), 1, benchOps(opsN))
		h.ringMu.Lock()
		h.ring = append(h.ring, seg)
		h.ringSz += seg.size()
		h.cursor = seg.to
		h.ringMu.Unlock()
		return h
	}
	run := func(b *testing.B, full bool) {
		h := newHub(b)
		var bytes int64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.resp = gencache.New[deltaKey, *cachedResp](64)
			if full {
				bytes += int64(len(h.buildFull("").Bytes))
			} else {
				resp, ok := h.buildDeltas(0, "")
				if !ok {
					b.Fatal("delta cursor not servable")
				}
				bytes += int64(len(resp.Bytes))
			}
		}
		b.ReportMetric(float64(bytes)/float64(b.N), "bytes_served/op")
	}
	b.Run("delta-csv", func(b *testing.B) { run(b, false) })
	b.Run("full", func(b *testing.B) { run(b, true) })
	b.Run("http", func(b *testing.B) {
		mux := http.NewServeMux()
		newHub(b).Register(mux, "")
		req := httptest.NewRequest(http.MethodGet, "/deltas?since=0", nil)
		w := &sinkWriter{h: make(http.Header)}
		mux.ServeHTTP(w, req) // fills the cache
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			clear(w.h)
			w.status, w.n = 0, 0
			mux.ServeHTTP(w, req)
			if w.status != http.StatusOK || w.n == 0 {
				b.Fatalf("/deltas answered %d with %d bytes", w.status, w.n)
			}
		}
		b.ReportMetric(float64(w.n), "bytes_served/op")
	})
}

// sinkWriter is a ResponseWriter that counts the body it is given and keeps
// none of it, reused across iterations so only the handler's allocations
// are counted.
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

// BenchmarkFanout measures delivering one event batch to N subscribers.
// single is the production path: the segment is encoded once and broadcast
// by reference. perenc is the naive baseline every per-connection encoder
// pays: re-render the batch for each subscriber. The acceptance bar is
// single ≥5× cheaper in allocs/event at 1k subscribers.
func BenchmarkFanout(b *testing.B) {
	const opsN = 100
	for _, subs := range []int{1, 100, 1000, 10_000} {
		h := NewHub(Options{QueueLen: 4})
		registered := make([]*subscriber, subs)
		for i := range registered {
			sub := &subscriber{notify: make(chan struct{}, 1)}
			h.addSub(sub)
			registered[i] = sub
		}
		ops := benchOps(opsN)
		seg := renderSegment(1, uint64(opsN), 1, ops)
		reset := func() {
			for _, sub := range registered {
				sub.queue = sub.queue[:0]
				sub.dropped = false
				select {
				case <-sub.notify:
				default:
				}
			}
		}
		b.Run(fmt.Sprintf("single/subs-%d", subs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h.broadcast(seg)
				reset()
			}
		})
		b.Run(fmt.Sprintf("perenc/subs-%d", subs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, sub := range registered {
					s := renderSegment(1, uint64(opsN), 1, ops)
					sub.mu.Lock()
					if len(sub.queue) < h.opt.QueueLen {
						sub.queue = append(sub.queue, s)
					}
					sub.mu.Unlock()
					select {
					case sub.notify <- struct{}{}:
					default:
					}
				}
				reset()
			}
		})
		h.Close()
	}
}

// BenchmarkSubscriberChurn measures connect/disconnect cost on the sharded
// registry while a broadcaster keeps delivering — the Drop-second pattern of
// catchers hammering reconnects.
func BenchmarkSubscriberChurn(b *testing.B) {
	h := NewHub(Options{})
	defer h.Close()
	seg := renderSegment(1, 1, 1, benchOps(10))
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				h.broadcast(seg)
			}
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			sub := &subscriber{notify: make(chan struct{}, 1)}
			remove := h.addSub(sub)
			remove()
		}
	})
	b.StopTimer()
	close(stop)
}

// BenchmarkSubscribe10k is the end-to-end sustained-streams run: 10k live
// SSE subscribers over in-memory connections, a producer committing a batch
// of mutations every few milliseconds, per-delivery fan-out lag measured
// from the mutation's append instant to client receipt. CI runs it with
// -benchtime=1x and BENCH.json carries the reported percentiles.
func BenchmarkSubscribe10k(b *testing.B) {
	for i := 0; i < b.N; i++ {
		// One fan-out sweep over 10k synchronous in-memory streams takes on
		// the order of a second on a small box; the burst spacing keeps the
		// offered rate under capacity so queues drain and the measured lag
		// is sweep position, not unbounded backlog.
		runSubscribeBench(b, 10_000, 1500*time.Millisecond, 12*time.Second)
	}
}

func runSubscribeBench(b *testing.B, streams int, burstEvery, window time.Duration) {
	b.Helper()
	h := NewHub(Options{})
	defer h.Close()
	hc, shutdown := memServer(h)
	defer shutdown()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // producer: one group-commit burst per interval
		defer wg.Done()
		// Wait out the connect storm so the lag measured is steady-state
		// fan-out, not accept-queue scheduling.
		for h.Metrics().Subscribers < int64(streams) {
			select {
			case <-stop:
				return
			case <-time.After(10 * time.Millisecond):
			}
		}
		day := simtime.Day{Year: 2018, Month: time.January, Dom: 20}
		n := 0
		for {
			select {
			case <-stop:
				return
			case <-time.After(burstEvery):
				for k := 0; k < 20; k++ {
					n++
					h.Append(registry.Mutation{
						Kind: registry.MutSeed, Name: fmt.Sprintf("live%08d.example", n),
						Status: model.StatusPendingDelete, DeleteDay: day,
					})
				}
			}
		}
	}()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res := runSubscribe(streams, window, func() (*Subscriber, error) {
		return Subscribe(ctx, hc, "http://feed.mem", -1, nil)
	})
	close(stop)
	cancel()
	wg.Wait()

	if res.Connected < streams {
		b.Fatalf("connected %d/%d streams (%d errors)", res.Connected, streams, res.ConnectErrors)
	}
	if res.Batches == 0 {
		b.Fatal("no event batches delivered")
	}
	b.ReportMetric(float64(res.Connected), "streams")
	b.ReportMetric(float64(res.Batches)/window.Seconds(), "deliveries/s")
	b.ReportMetric(float64(res.P50().Microseconds())/1000, "p50_ms")
	b.ReportMetric(float64(res.P99().Microseconds())/1000, "p99_ms")
	b.ReportMetric(float64(res.P999().Microseconds())/1000, "p999_ms")
	b.ReportMetric(float64(res.Resumed+res.Resets), "degraded")
}

// subscribeResult reports one runSubscribe run. Its Result's latency
// distribution is the per-batch fan-out lag: client receipt instant minus
// the producer-side Sent instant, across every stream.
type subscribeResult struct {
	loadgen.Result
	Connected     int    // streams that opened successfully
	ConnectErrors uint64 // open failures
	Batches       uint64 // event batches received across all streams
	Resumed       uint64 // batches delivered via slow-consumer catch-up
	Resets        uint64 // streams that lost ring coverage and resynced fully
}

// runSubscribe opens streams concurrent subscriptions via open and consumes
// them for window, recording each batch's fan-out lag into one shared
// fixed-bucket histogram — 10k streams cost 10k goroutines but a single
// ~12 KB latency structure. When window elapses every stream is closed,
// which ends its blocked Next.
func runSubscribe(streams int, window time.Duration, open func() (*Subscriber, error)) subscribeResult {
	var (
		hist                                  loadgen.Hist
		connected                             atomic.Int64
		connectErrs, batches, resumed, resets atomic.Uint64

		mu     sync.Mutex
		closed bool
		live   []*Subscriber
		wg     sync.WaitGroup
	)
	for i := 0; i < streams; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := open()
			if err != nil {
				connectErrs.Add(1)
				return
			}
			connected.Add(1)
			mu.Lock()
			if closed {
				mu.Unlock()
				st.Close()
				return
			}
			live = append(live, st)
			mu.Unlock()
			for {
				ev, err := st.Next()
				if err != nil {
					return
				}
				batches.Add(1)
				if ev.Resumed {
					resumed.Add(1)
				}
				if ev.Reset {
					resets.Add(1)
					continue // no Sent instant: a resync, not a delivery
				}
				if !ev.Sent.IsZero() {
					hist.Record(time.Since(ev.Sent))
				}
			}
		}()
	}

	time.Sleep(window)
	mu.Lock()
	closed = true
	for _, st := range live {
		st.Close()
	}
	mu.Unlock()
	wg.Wait()
	return subscribeResult{
		Result:        hist.Snapshot(),
		Connected:     int(connected.Load()),
		ConnectErrors: connectErrs.Load(),
		Batches:       batches.Load(),
		Resumed:       resumed.Load(),
		Resets:        resets.Load(),
	}
}
