package feed

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"dropzero/internal/inproc"
	"dropzero/internal/model"
	"dropzero/internal/registry"
	"dropzero/internal/simtime"
)

func day0() simtime.Day { return simtime.Day{Year: 2018, Month: time.January, Dom: 10} }

type env struct {
	store *registry.Store
	clock *simtime.SimClock
	hub   *Hub
	srv   *httptest.Server
}

// newEnv builds a store with an attached hub and an HTTP server mounting
// the feed endpoints — the full serving path, over real TCP so SSE streams.
func newEnv(t *testing.T, opt Options) *env {
	t.Helper()
	clock := simtime.NewSimClock(day0().At(9, 0, 0))
	store := registry.NewStore(clock)
	store.AddRegistrar(model.Registrar{IANAID: 1000})
	hub := NewHub(opt)
	hub.PrimeFromStore(store)
	store.SetJournal(hub)
	mux := http.NewServeMux()
	hub.Register(mux, "")
	srv := httptest.NewServer(mux)
	t.Cleanup(func() {
		srv.Close()
		hub.Close()
	})
	return &env{store: store, clock: clock, hub: hub, srv: srv}
}

func seedPending(t *testing.T, store *registry.Store, name string, day simtime.Day) {
	t.Helper()
	updated := day.AddDays(-35).At(6, 30, 0)
	if _, err := store.SeedAt(name, 1000, updated.AddDate(-2, 0, 0), updated,
		updated.AddDate(0, 0, -30), model.StatusPendingDelete, day); err != nil {
		t.Fatal(err)
	}
}

func seedActive(t *testing.T, store *registry.Store, name string, now time.Time) {
	t.Helper()
	if _, err := store.SeedAt(name, 1000, now.AddDate(-1, 0, 0), now.AddDate(-1, 0, 0),
		now.AddDate(1, 0, 0), model.StatusActive, simtime.Day{}); err != nil {
		t.Fatal(err)
	}
}

// renderItems is the canonical name,day CSV — must match /deltas/full.
func renderItems(items []Item) string {
	var b strings.Builder
	for _, it := range items {
		b.WriteString(it.Name)
		b.WriteByte(',')
		b.WriteString(it.Day.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// storePendingCSV derives the reference list straight from the store.
func storePendingCSV(store *registry.Store) string {
	var items []Item
	store.Each(func(d *model.Domain) bool {
		if d.Status == model.StatusPendingDelete {
			items = append(items, Item{Name: d.Name, Day: d.DeleteDay})
		}
		return true
	})
	sortItems(items)
	return renderItems(items)
}

func fetchFullBody(t *testing.T, base string) (string, uint64) {
	t.Helper()
	m := NewMirror()
	cur, err := FetchFull(context.Background(), nil, base, m)
	if err != nil {
		t.Fatal(err)
	}
	return renderItems(m.Items()), cur
}

func TestLifecycleOps(t *testing.T) {
	e := newEnv(t, Options{})
	now := e.clock.Now()
	seedActive(t, e.store, "flap.com", now)

	// Active → pendingDelete: '+'.
	if err := e.store.MarkPendingDelete("flap.com", now, day0().AddDays(3)); err != nil {
		t.Fatal(err)
	}
	e.hub.Quiesce()
	items, _ := e.hub.PendingItems()
	if len(items) != 1 || items[0].Name != "flap.com" {
		t.Fatalf("after mark: %+v", items)
	}

	// Renewed out of pendingDelete: '-'.
	if err := e.store.Renew("flap.com", 1000, 1); err != nil {
		t.Fatal(err)
	}
	e.hub.Quiesce()
	if items, _ := e.hub.PendingItems(); len(items) != 0 {
		t.Fatalf("after renew: %+v", items)
	}

	// Back in, then purged at the Drop: '+' then '!'.
	if err := e.store.MarkPendingDelete("flap.com", e.clock.Now(), day0()); err != nil {
		t.Fatal(err)
	}
	runner := registry.NewDropRunner(e.store, registry.DefaultDropConfig())
	if _, err := runner.Run(day0(), rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	e.hub.Quiesce()
	if items, _ := e.hub.PendingItems(); len(items) != 0 {
		t.Fatalf("after purge: %+v", items)
	}

	// Re-registration of a purged name: '*' in the stream, list unchanged.
	if _, err := e.store.CreateAt("flap.com", 1000, 1, e.clock.Now()); err != nil {
		t.Fatal(err)
	}
	e.hub.Quiesce()

	// A mirror replaying the whole stream from cursor 0 must see every op,
	// including the re-registration marker.
	m := NewMirror()
	m.ResetFull(nil, 0)
	resp, err := http.Get(e.srv.URL + "/deltas?since=0")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deltas since=0: %s", resp.Status)
	}
	ops, err := ParseOps([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	var kinds []byte
	for _, op := range ops {
		kinds = append(kinds, byte(op.Kind))
	}
	if got, want := string(kinds), "+-+!*"; got != want {
		t.Fatalf("op stream = %q, want %q", got, want)
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var b strings.Builder
	if _, err := copyBuilder(&b, resp); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func copyBuilder(b *strings.Builder, resp *http.Response) (int64, error) {
	buf := make([]byte, 4096)
	var n int64
	for {
		k, err := resp.Body.Read(buf)
		b.Write(buf[:k])
		n += int64(k)
		if err != nil {
			if err.Error() == "EOF" {
				return n, nil
			}
			return n, err
		}
	}
}

// TestDifferentialMirrorVsFullFetch is the acceptance-criteria test: across
// three seeds and a multi-day Drop with re-registration flaps, clients that
// joined at arbitrary generations and advanced only by applying deltas must
// render byte-identically to a fresh full fetch — and to the store itself —
// at every checkpoint. Two kinds of client: polling mirrors (/deltas) and
// SSE mirrors (/events), some of which join with a stale since=0 cursor that
// the small ring answers by replay or, once it has evicted the seeding, by a
// reset and a full refetch.
func TestDifferentialMirrorVsFullFetch(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			e := newEnv(t, Options{RingBytes: 4 << 10})
			rng := rand.New(rand.NewSource(seed))
			now := e.clock.Now()
			for i := 0; i < 40; i++ {
				seedActive(t, e.store, fmt.Sprintf("active%d-%d.com", seed, i), now)
			}
			for i := 0; i < 20; i++ {
				seedPending(t, e.store, fmt.Sprintf("pending%d-%d.com", seed, i),
					day0().AddDays(rng.Intn(3)))
			}
			// The seeds above streamed through the hub (the env primes before
			// seeding), so mirrors can join at any point.

			polled := []*Mirror{NewMirror()} // joins at generation 0
			var streamed []*Mirror
			ctx, cancel := context.WithCancel(context.Background())
			var wg sync.WaitGroup
			streamErr := make(chan error, 16) // one error per stream at most; the test opens six
			t.Cleanup(func() { cancel(); wg.Wait() })
			// stream attaches an SSE mirror: primed from the full list and
			// resuming at its cursor, or empty and stale at since=0.
			stream := func(stale bool) {
				m := NewMirror()
				if !stale {
					if _, err := FetchFull(ctx, nil, e.srv.URL, m); err != nil {
						t.Fatal(err)
					}
				}
				sub, err := Subscribe(ctx, nil, e.srv.URL, int64(m.Cursor()), m)
				if err != nil {
					t.Fatal(err)
				}
				streamed = append(streamed, m)
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer sub.Close()
					for {
						if _, err := sub.Next(); err != nil {
							if ctx.Err() == nil {
								streamErr <- err
							}
							return
						}
					}
				}()
			}
			stream(false)
			stream(true)
			catchUp := func() {
				e.hub.Quiesce()
				for _, m := range polled {
					if _, err := SyncDeltas(ctx, nil, e.srv.URL, m); err != nil {
						t.Fatal(err)
					}
				}
				target := e.hub.Cursor()
				deadline := time.Now().Add(10 * time.Second)
				for _, m := range streamed {
					for m.Cursor() < target {
						select {
						case err := <-streamErr:
							t.Fatalf("SSE stream: %v", err)
						default:
						}
						if time.Now().After(deadline) {
							t.Fatalf("SSE mirror stuck at cursor %d, feed at %d", m.Cursor(), target)
						}
						time.Sleep(2 * time.Millisecond)
					}
				}
			}
			checkpoint := func(stage string) {
				catchUp()
				want, _ := fetchFullBody(t, e.srv.URL)
				if ref := storePendingCSV(e.store); want != ref {
					t.Fatalf("%s: served full list diverges from store:\nserved:\n%s\nstore:\n%s", stage, want, ref)
				}
				for i, m := range slices.Concat(polled, streamed) {
					if got := renderItems(m.Items()); got != want {
						t.Fatalf("%s: mirror %d diverged:\nmirror:\n%s\nfull:\n%s", stage, i, got, want)
					}
				}
			}
			checkpoint("after seeding")

			runner := registry.NewDropRunner(e.store, registry.DefaultDropConfig())
			var purged []string
			for d := 0; d < 4; d++ {
				day := day0().AddDays(d)
				e.clock.Set(day.At(10, 0, 0))

				// New deletions enter the pipeline.
				for i := 0; i < 5; i++ {
					name := fmt.Sprintf("churn%d-%d-%d.com", seed, d, i)
					seedActive(t, e.store, name, e.clock.Now())
					if err := e.store.MarkPendingDelete(name, e.clock.Now(), day.AddDays(1+rng.Intn(2))); err != nil {
						t.Fatal(err)
					}
				}
				checkpoint("after marks")

				// A couple of pending names get renewed away (flap out).
				items, _ := e.hub.PendingItems()
				for i := 0; i < 2 && i < len(items); i++ {
					if err := e.store.Renew(items[rng.Intn(len(items))].Name, 1000, 1); err != nil {
						t.Fatal(err)
					}
				}
				checkpoint("after renews")

				// The Drop purges today's names.
				events, err := runner.Run(day, rng)
				if err != nil {
					t.Fatal(err)
				}
				for _, ev := range events {
					purged = append(purged, ev.Name())
				}
				checkpoint("after drop")

				// Drop-catchers re-register some purged names, and one flaps
				// straight back into pendingDelete (the paper's fast flip).
				for i := 0; i < 3 && len(purged) > 0; i++ {
					name := purged[len(purged)-1]
					purged = purged[:len(purged)-1]
					if _, err := e.store.CreateAt(name, 1000, 1, e.clock.Now()); err != nil {
						t.Fatal(err)
					}
					if i == 0 {
						if err := e.store.MarkPendingDelete(name, e.clock.Now(), day.AddDays(2)); err != nil {
							t.Fatal(err)
						}
					}
				}
				checkpoint("after re-registrations")

				// Fresh clients join mid-stream each day.
				m := NewMirror()
				if _, err := FetchFull(ctx, nil, e.srv.URL, m); err != nil {
					t.Fatal(err)
				}
				polled = append(polled, m)
				stream(d%2 == 0)
			}
			checkpoint("final")
		})
	}
}

func TestDeltaETagAndNotModified(t *testing.T) {
	e := newEnv(t, Options{})
	seedPending(t, e.store, "a.com", day0())
	seedPending(t, e.store, "b.com", day0().AddDays(1))
	e.hub.Quiesce()

	resp, err := http.Get(e.srv.URL + "/deltas?since=0")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	etag := resp.Header.Get("ETag")
	if etag == "" || resp.Header.Get("X-Feed-Cursor") == "" {
		t.Fatalf("missing ETag/X-Feed-Cursor: %v", resp.Header)
	}
	if cl := resp.ContentLength; cl != int64(len(body)) {
		t.Fatalf("Content-Length %d, body %d", cl, len(body))
	}

	req, _ := http.NewRequest(http.MethodGet, e.srv.URL+"/deltas?since=0", nil)
	req.Header.Set("If-None-Match", etag)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp2)
	if resp2.StatusCode != http.StatusNotModified {
		t.Fatalf("revalidation = %s, want 304", resp2.Status)
	}

	// New mutation → new ETag, and the old one stops matching.
	seedPending(t, e.store, "c.com", day0())
	e.hub.Quiesce()
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp3)
	if resp3.StatusCode != http.StatusOK || resp3.Header.Get("ETag") == etag {
		t.Fatalf("after mutation: %s etag %q", resp3.Status, resp3.Header.Get("ETag"))
	}
}

// TestETagOverInproc: an in-process client sees the handler's header map as
// written, so the validator of /deltas and /deltas/full must sit under the
// canonical key, and replaying it must answer 304.
func TestETagOverInproc(t *testing.T) {
	e := newEnv(t, Options{})
	seedPending(t, e.store, "a.com", day0())
	e.hub.Quiesce()
	client := inproc.Client(e.srv.Config.Handler)
	for _, path := range []string{"/deltas?since=0", "/deltas/full"} {
		resp, err := client.Get("http://feed" + path)
		if err != nil {
			t.Fatal(err)
		}
		readAll(t, resp)
		etag := resp.Header.Get("ETag")
		if resp.StatusCode != http.StatusOK || etag == "" {
			t.Fatalf("%s: %s, ETag %q", path, resp.Status, etag)
		}
		req, _ := http.NewRequest(http.MethodGet, "http://feed"+path, nil)
		req.Header.Set("If-None-Match", etag)
		if resp, err = client.Do(req); err != nil {
			t.Fatal(err)
		}
		readAll(t, resp)
		if resp.StatusCode != http.StatusNotModified {
			t.Fatalf("%s revalidated with %s: %s, want 304", path, etag, resp.Status)
		}
	}
}

func TestDeltaMissRedirectsToFull(t *testing.T) {
	e := newEnv(t, Options{RingBytes: 1}) // every installed segment evicts the prior one
	for i := 0; i < 10; i++ {
		seedPending(t, e.store, fmt.Sprintf("evict%d.com", i), day0())
		e.hub.Quiesce() // one segment per record, so eviction definitely runs
	}
	// A cursor below the eviction floor cannot be served incrementally.
	resp, err := http.Get(e.srv.URL + "/deltas?since=1")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.Header.Get("X-Feed-Full") != "1" {
		t.Fatalf("expected redirect to the full list, got %s %v", resp.Status, resp.Header)
	}
	if want, _ := fetchFullBody(t, e.srv.URL); body != want {
		t.Fatalf("redirected body diverges from /deltas/full")
	}
	// Missing and future cursors redirect too.
	for _, q := range []string{"", "?since=notanumber", "?since=99999"} {
		resp, err := http.Get(e.srv.URL + "/deltas" + q)
		if err != nil {
			t.Fatal(err)
		}
		readAll(t, resp)
		if resp.Header.Get("X-Feed-Full") != "1" {
			t.Fatalf("deltas%s did not land on the full list", q)
		}
	}
}

func TestMidBatchCursorRedirects(t *testing.T) {
	// Build a multi-record batch deterministically by driving ingest directly
	// (the broadcaster path coalesces timing-dependently).
	h := NewHub(Options{})
	defer h.Close()
	now := time.Now().UnixNano()
	batch := []rec{
		{m: registry.Mutation{Kind: registry.MutSeed, Name: "x.com", Status: model.StatusPendingDelete, DeleteDay: day0()}, at: now},
		{m: registry.Mutation{Kind: registry.MutSeed, Name: "y.com", Status: model.StatusPendingDelete, DeleteDay: day0()}, at: now},
		{m: registry.Mutation{Kind: registry.MutSeed, Name: "z.com", Status: model.StatusPendingDelete, DeleteDay: day0()}, at: now},
	}
	h.ingest(batch)
	if _, ok := h.segmentsSinceLocked(0); !ok {
		t.Fatal("batch boundary 0 must be servable")
	}
	if _, ok := h.segmentsSinceLocked(3); !ok {
		t.Fatal("batch boundary 3 must be servable")
	}
	if _, ok := h.segmentsSinceLocked(1); ok {
		t.Fatal("cursor 1 is mid-batch and must miss")
	}
	if _, ok := h.segmentsSinceLocked(4); ok {
		t.Fatal("cursor past the hub must miss")
	}
}

func TestLongPollWaitsForAdvance(t *testing.T) {
	e := newEnv(t, Options{})
	seedPending(t, e.store, "seed.com", day0())
	e.hub.Quiesce()
	cur := e.hub.Cursor()

	done := make(chan string, 1)
	go func() {
		resp, err := http.Get(fmt.Sprintf("%s/deltas?since=%d&wait=5s", e.srv.URL, cur))
		if err != nil {
			done <- err.Error()
			return
		}
		done <- readAll(t, resp)
	}()
	time.Sleep(50 * time.Millisecond)
	select {
	case body := <-done:
		t.Fatalf("long-poll returned before any mutation: %q", body)
	default:
	}
	seedPending(t, e.store, "late.com", day0())
	select {
	case body := <-done:
		if !strings.Contains(body, "late.com") {
			t.Fatalf("long-poll body missing the new delta: %q", body)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("long-poll did not wake on mutation")
	}
}

func TestSSEStreamDeliversAndMirrors(t *testing.T) {
	e := newEnv(t, Options{})
	seedPending(t, e.store, "pre.com", day0())
	e.hub.Quiesce()

	m := NewMirror()
	if _, err := FetchFull(context.Background(), nil, e.srv.URL, m); err != nil {
		t.Fatal(err)
	}
	sub, err := Subscribe(context.Background(), nil, e.srv.URL, int64(m.Cursor()), m)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	seedPending(t, e.store, "live.com", day0().AddDays(1))
	ev, err := sub.Next()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Records == 0 || ev.Sent.IsZero() || ev.Reset {
		t.Fatalf("event = %+v", ev)
	}
	if lag := time.Since(ev.Sent); lag <= 0 || lag > time.Minute {
		t.Fatalf("implausible fan-out lag %v", lag)
	}
	e.hub.Quiesce()
	want, _ := fetchFullBody(t, e.srv.URL)
	if got := renderItems(m.Items()); got != want {
		t.Fatalf("SSE mirror diverged:\n%s\nwant:\n%s", got, want)
	}

	// The server observed the delivery.
	fl := e.hub.FanoutLag()
	if fl.Requests == 0 {
		t.Fatal("no fan-out lag samples recorded")
	}
}

func TestSSEResumeFromCursor(t *testing.T) {
	e := newEnv(t, Options{})
	seedPending(t, e.store, "one.com", day0())
	e.hub.Quiesce()
	cur := e.hub.Cursor()
	seedPending(t, e.store, "two.com", day0())
	e.hub.Quiesce()

	// Connect with the older cursor: the missed segment replays first.
	m := NewMirror()
	m.ResetFull([]Item{{Name: "one.com", Day: day0()}}, cur)
	sub, err := Subscribe(context.Background(), nil, e.srv.URL, int64(cur), m)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	ev, err := sub.Next()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Reset {
		t.Fatalf("expected replayed delta, got reset: %+v", ev)
	}
	want, _ := fetchFullBody(t, e.srv.URL)
	if got := renderItems(m.Items()); got != want {
		t.Fatalf("replayed mirror diverged:\n%s\nwant:\n%s", got, want)
	}
}

func TestSSEResetWhenRingCannotCover(t *testing.T) {
	e := newEnv(t, Options{RingBytes: 1})
	for i := 0; i < 10; i++ {
		seedPending(t, e.store, fmt.Sprintf("r%d.com", i), day0())
		e.hub.Quiesce()
	}
	// Cursor 1 is long evicted: the stream must open with an explicit reset,
	// and the mirror must recover by refetching the full list.
	m := NewMirror()
	m.ResetFull(nil, 1)
	sub, err := Subscribe(context.Background(), nil, e.srv.URL, 1, m)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	ev, err := sub.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Reset {
		t.Fatalf("expected reset event, got %+v", ev)
	}
	want, _ := fetchFullBody(t, e.srv.URL)
	if got := renderItems(m.Items()); got != want {
		t.Fatalf("post-reset mirror diverged:\n%s\nwant:\n%s", got, want)
	}
	if e.hub.Metrics().Resets == 0 {
		t.Fatal("reset not counted")
	}
}

func TestBroadcastOverflowDropsToCatchup(t *testing.T) {
	h := NewHub(Options{QueueLen: 2})
	defer h.Close()
	sub := &subscriber{notify: make(chan struct{}, 1)}
	remove := h.addSub(sub)
	defer remove()
	seg := renderSegment(1, 1, 1, []Op{{Kind: OpAdd, Name: "x.com", Day: day0()}})
	for i := 0; i < 5; i++ {
		h.broadcast(seg)
	}
	sub.mu.Lock()
	defer sub.mu.Unlock()
	if !sub.dropped {
		t.Fatal("overflowed subscriber not marked for catch-up")
	}
	if len(sub.queue) != 0 {
		t.Fatalf("dropped subscriber still holds %d frames", len(sub.queue))
	}
	if h.Metrics().SlowDrops != 1 {
		t.Fatalf("slow drops = %d, want 1 (drop once, then catch up)", h.Metrics().SlowDrops)
	}
}

func TestHubMetricsCoalescing(t *testing.T) {
	e := newEnv(t, Options{})
	for i := 0; i < 50; i++ {
		seedPending(t, e.store, fmt.Sprintf("m%d.com", i), day0())
	}
	e.hub.Quiesce()
	m := e.hub.Metrics()
	if m.Records != 50 {
		t.Fatalf("records = %d, want 50", m.Records)
	}
	if m.Batches == 0 || m.Batches > m.Records {
		t.Fatalf("batches = %d outside (0, %d]", m.Batches, m.Records)
	}
	if m.Ops != 50 || m.Pending != 50 {
		t.Fatalf("ops %d pending %d, want 50/50", m.Ops, m.Pending)
	}
	if m.Cursor != 50 {
		t.Fatalf("cursor = %d, want 50", m.Cursor)
	}
}

// TestHubMetricsTrackCursor holds the ingest counters to the cursor: they
// advance under the lock that publishes it, so no Metrics snapshot — taken
// while batches fold, or right after Quiesce — has counted fewer records
// than the cursor covers.
func TestHubMetricsTrackCursor(t *testing.T) {
	e := newEnv(t, Options{})
	start := e.hub.Metrics().Cursor
	at := day0().At(9, 0, 0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 3000; i++ {
			if _, err := e.store.SeedAt(fmt.Sprintf("q%d.com", i), 1000, at, at, at.AddDate(1, 0, 0), model.StatusActive, simtime.Day{}); err != nil {
				t.Error(err)
				return
			}
			e.hub.Quiesce()
			if m := e.hub.Metrics(); m.Cursor-start != uint64(i+1) || m.Records != m.Cursor-start {
				t.Errorf("after seed %d and Quiesce: cursor %d, records %d (start %d)", i, m.Cursor, m.Records, start)
				return
			}
		}
	}()
	for {
		select {
		case <-done:
			return
		default:
		}
		if m := e.hub.Metrics(); m.Records != m.Cursor-start {
			t.Errorf("mid-ingest snapshot: cursor %d, records %d (start %d)", m.Cursor, m.Records, start)
			<-done
			return
		}
	}
}

func TestParseOpsRoundTrip(t *testing.T) {
	ops := []Op{
		{Kind: OpAdd, Name: "a.com", Day: day0()},
		{Kind: OpRemove, Name: "b.com"},
		{Kind: OpPurge, Name: "c.com"},
		{Kind: OpRereg, Name: "d.com"},
	}
	seg := renderSegment(1, 4, 123, ops)
	got, err := ParseOps(sseOpLines(t, seg.sse))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ops) {
		t.Fatalf("parsed %d ops, want %d", len(got), len(ops))
	}
	for i := range ops {
		if got[i] != ops[i] {
			t.Fatalf("op %d = %+v, want %+v", i, got[i], ops[i])
		}
	}
	if _, err := ParseOps([]byte("?,bad,\n")); err == nil {
		t.Fatal("unknown op must fail to parse")
	}
}

// sseOpLines returns a delta frame's op lines with their "data: " prefix
// stripped: everything after the id, event and batch-header lines.
func sseOpLines(t *testing.T, frame []byte) []byte {
	t.Helper()
	lines := strings.SplitAfter(string(frame), "\n")
	if len(lines) < 4 || !strings.HasPrefix(lines[0], "id: ") ||
		lines[1] != "event: delta\n" || !strings.HasPrefix(lines[2], "data: ") {
		t.Fatalf("not a delta frame: %q", frame)
	}
	var b strings.Builder
	for _, l := range lines[3:] {
		if l == "\n" || l == "" {
			continue
		}
		op, ok := strings.CutPrefix(l, "data: ")
		if !ok {
			t.Fatalf("op line without data prefix: %q", l)
		}
		b.WriteString(op)
	}
	return []byte(b.String())
}

// /deltas speaks CSV only: format=csv is the default spelled out, and any
// other format (the retired NDJSON shape included) is refused rather than
// answered with a body the client would misparse.
func TestDeltasFormatParam(t *testing.T) {
	e := newEnv(t, Options{})
	seedPending(t, e.store, "a.com", day0())
	seedPending(t, e.store, "b.net", day0().AddDays(1))
	e.hub.Quiesce()
	get := func(q string) (int, string) {
		t.Helper()
		resp, err := http.Get(e.srv.URL + "/deltas?since=0" + q)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, readAll(t, resp)
	}
	code, plain := get("")
	if code != http.StatusOK || plain == "" {
		t.Fatalf("no format: %d %q", code, plain)
	}
	if code, body := get("&format=csv"); code != http.StatusOK || body != plain {
		t.Fatalf("format=csv: %d %q, want 200 %q", code, body, plain)
	}
	for _, f := range []string{"json", "ndjson", "CSV"} {
		if code, _ := get("&format=" + f); code != http.StatusBadRequest {
			t.Fatalf("format=%s answered %d, want 400", f, code)
		}
	}
}

// The /deltas body is rendered from each segment's ops, the SSE frame once
// at ingest: over random batches of adds (with days), removes, purges and
// re-registrations, the two must carry the same op lines in cursor order,
// for every servable cursor, and both must keep the fmt-rendered wire form.
func TestDeltasBodyMatchesSSEFrames(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		h := NewHub(Options{})
		names := make([]string, 40)
		for i := range names {
			names[i] = fmt.Sprintf("n%02d.%s", i, []string{"com", "net", "se"}[i%3])
		}
		for step := 0; step < 60; step++ {
			batch := make([]rec, []int{1, 2, 7, 32}[rng.Intn(4)])
			for i := range batch {
				m := registry.Mutation{Name: names[rng.Intn(len(names))]}
				switch rng.Intn(5) {
				case 0:
					m.Kind, m.Status, m.DeleteDay = registry.MutSeed, model.StatusPendingDelete, day0().AddDays(rng.Intn(400))
				case 1:
					m.Kind, m.Status, m.DeleteDay = registry.MutSetState, model.StatusPendingDelete, day0().AddDays(rng.Intn(400))
				case 2:
					m.Kind, m.Status = registry.MutSetState, model.StatusActive
				case 3:
					m.Kind = registry.MutPurge
				default:
					m.Kind = registry.MutCreate
				}
				batch[i] = rec{m: m, at: int64(step)}
			}
			h.ingest(batch)
		}
		h.Close()

		var frames, ref strings.Builder
		kinds := map[OpKind]int{}
		for _, seg := range h.ring {
			frames.Write(sseOpLines(t, seg.sse))
			var lines strings.Builder
			for _, op := range seg.opList {
				kinds[op.Kind]++
				day := ""
				if op.Kind == OpAdd {
					day = fmt.Sprintf("%04d-%02d-%02d", op.Day.Year, int(op.Day.Month), op.Day.Dom)
				}
				fmt.Fprintf(&lines, "%c,%s,%s\n", op.Kind, op.Name, day)
			}
			ref.WriteString(lines.String())
			var want strings.Builder
			fmt.Fprintf(&want, "id: %d\nevent: delta\ndata: %d %d %d %d\n", seg.to, seg.from, seg.to, seg.at, len(seg.opList))
			for _, l := range strings.SplitAfter(lines.String(), "\n") {
				if l != "" {
					want.WriteString("data: " + l)
				}
			}
			want.WriteString("\n")
			if string(seg.sse) != want.String() {
				t.Fatalf("seed %d: frame %d-%d = %q, want %q", seed, seg.from, seg.to, seg.sse, want.String())
			}
		}
		if len(kinds) != 4 {
			t.Fatalf("seed %d: op kinds seen %v, want all four", seed, kinds)
		}
		if frames.String() != ref.String() {
			t.Fatalf("seed %d: SSE op lines differ from the fmt reference", seed)
		}
		if resp, ok := h.buildDeltas(0, ""); !ok || string(resp.Bytes) != frames.String() {
			t.Fatalf("seed %d: /deltas since 0 differs from the frames' op lines", seed)
		}
		for i, seg := range h.ring {
			resp, ok := h.buildDeltas(seg.from-1, "")
			if !ok {
				t.Fatalf("seed %d: cursor %d not servable", seed, seg.from-1)
			}
			var tail strings.Builder
			for _, s := range h.ring[i:] {
				tail.Write(sseOpLines(t, s.sse))
			}
			if string(resp.Bytes) != tail.String() {
				t.Fatalf("seed %d: /deltas since %d = %q, want %q", seed, seg.from-1, resp.Bytes, tail.String())
			}
		}
	}
}
