package dropscope

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"dropzero/internal/inproc"
	"dropzero/internal/model"
	"dropzero/internal/registry"
	"dropzero/internal/simtime"
)

// mustEntry is registry.NewPending for a day a list can hold.
func mustEntry(t *testing.T, name string, day simtime.Day) Entry {
	t.Helper()
	e, err := registry.NewPending(name, day)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func newEnv(t *testing.T) (*registry.Store, *Client, simtime.Day) {
	t.Helper()
	day := simtime.Day{Year: 2018, Month: time.January, Dom: 10}
	clock := simtime.NewSimClock(day.At(9, 0, 0))
	store := registry.NewStore(clock)
	store.AddRegistrar(model.Registrar{IANAID: 1000})
	srv := NewServer(store)
	client, err := NewClient("http://scope.test", inproc.Client(srv.Handler()))
	if err != nil {
		t.Fatal(err)
	}
	return store, client, day
}

func seedPending(t *testing.T, store *registry.Store, name string, day simtime.Day) {
	t.Helper()
	updated := day.AddDays(-35).At(6, 30, 0)
	_, err := store.SeedAt(name, 1000, updated.AddDate(-2, 0, 0), updated,
		updated.AddDate(0, 0, -30), model.StatusPendingDelete, day)
	if err != nil {
		t.Fatal(err)
	}
}

func TestFetchWindow(t *testing.T) {
	store, client, day := newEnv(t)
	for i := 0; i < 8; i++ {
		seedPending(t, store, fmt.Sprintf("d%d.com", i), day.AddDays(i))
	}
	entries, err := client.Fetch(context.Background(), day)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != LookaheadDays {
		t.Fatalf("entries = %d, want %d", len(entries), LookaheadDays)
	}
	for _, e := range entries {
		if e.DeleteDay().Before(day) || !e.DeleteDay().Before(day.AddDays(LookaheadDays)) {
			t.Fatalf("entry %v outside window", e)
		}
	}
}

func TestFetchIncludesBothTLDs(t *testing.T) {
	store, client, day := newEnv(t)
	seedPending(t, store, "a.com", day)
	seedPending(t, store, "b.net", day)
	entries, err := client.Fetch(context.Background(), day)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("entries = %d, want 2 (both TLDs published)", len(entries))
	}
}

func TestFetchExcludesActive(t *testing.T) {
	store, client, day := newEnv(t)
	store.Create("active.com", 1000, 1)
	seedPending(t, store, "pending.com", day)
	entries, err := client.Fetch(context.Background(), day)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name != "pending.com" {
		t.Fatalf("entries = %+v", entries)
	}
}

func TestFetchBadDate(t *testing.T) {
	_, client, _ := newEnv(t)
	u := *client.base
	_ = u
	// Directly exercise the server's date validation through the client's
	// HTTP stack by sending a bogus day value.
	req, _ := client.http.Get("http://scope.test/pendingdelete?date=not-a-date")
	if req.StatusCode != 400 {
		t.Fatalf("bad date status = %d", req.StatusCode)
	}
	req.Body.Close()
}

func TestParseListRejectsGarbage(t *testing.T) {
	_, err := ParseList(strings.NewReader("only-one-field\n"))
	if err == nil {
		t.Fatal("garbage list accepted")
	}
	_, err = ParseList(strings.NewReader("a.com,not-a-date\n"))
	if err == nil {
		t.Fatal("bad date accepted")
	}
	// A calendar date an entry cannot store is refused by name, and the
	// entries before it are returned.
	entries, err := ParseList(strings.NewReader("a.com,2018-01-02\nb.com,1969-12-31\n"))
	if err == nil || len(entries) != 1 || entries[0].Name != "a.com" {
		t.Fatalf("a 1969 delete date: entries %v, error %v", entries, err)
	}
}

func TestParseListEmpty(t *testing.T) {
	entries, err := ParseList(strings.NewReader(""))
	if err != nil || len(entries) != 0 {
		t.Fatalf("empty list: %v %v", entries, err)
	}
}

// TestParseListNamesShareOneArena: a list's names are consecutive slices of
// one string — lower-cased, nothing between them — so keeping them pins the
// names' own bytes and no CSV line.
func TestParseListNamesShareOneArena(t *testing.T) {
	entries, err := ParseList(strings.NewReader("Alpha.COM,2018-01-02\n\"quo,ted.net\",2018-01-03\nc.com,2018-01-03\n"))
	if err != nil {
		t.Fatal(err)
	}
	want := []Entry{
		mustEntry(t, "alpha.com", simtime.Day{Year: 2018, Month: time.January, Dom: 2}),
		mustEntry(t, "quo,ted.net", simtime.Day{Year: 2018, Month: time.January, Dom: 3}),
		mustEntry(t, "c.com", simtime.Day{Year: 2018, Month: time.January, Dom: 3}),
	}
	if !slices.Equal(entries, want) {
		t.Fatalf("entries = %v", entries)
	}
	for i := 1; i < len(entries); i++ {
		prev := entries[i-1].Name
		if unsafe.StringData(entries[i].Name) != (*byte)(unsafe.Add(unsafe.Pointer(unsafe.StringData(prev)), len(prev))) {
			t.Fatalf("%q does not start where %q ends", entries[i].Name, prev)
		}
	}
	// A malformed line still yields the entries before it, names included.
	entries, err = ParseList(strings.NewReader("a.com,2018-01-02\nb.com,not-a-date\n"))
	if err == nil || len(entries) != 1 || entries[0].Name != "a.com" {
		t.Fatalf("partial parse: %v, %v", entries, err)
	}
}

// FuzzParseList: ParseList never panics, and whatever it accepts renders
// (RenderEntries) to a list that parses back to the same entries.
func FuzzParseList(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("a.com,2018-01-02\nB.NET,2018-01-03\n"))
	f.Add([]byte("\"quo,ted.com\",2018-01-02\n"))
	f.Add([]byte("a.com,2018-01-02"))
	f.Add([]byte("a.com,2018-13-02\n"))
	f.Add([]byte("only-one-field\n"))
	f.Add([]byte("a.com,2018-01-02,extra\n"))
	f.Add([]byte("\xff\xc4\xb0.com,0000-01-01\n,9999-12-31\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := ParseList(bytes.NewReader(data))
		for _, e := range entries {
			if e.Name != strings.ToLower(e.Name) {
				t.Fatalf("name %q not lower-cased", e.Name)
			}
		}
		if err != nil {
			return
		}
		again, err := ParseList(bytes.NewReader(RenderEntries(entries)))
		if err != nil {
			t.Fatalf("re-rendered list refused: %v", err)
		}
		if !slices.Equal(entries, again) {
			t.Fatalf("entries changed on the way through RenderEntries:\n%v\n%v", entries, again)
		}
	})
}

func TestListOrderIsNotDeletionOrder(t *testing.T) {
	// The published list is sorted by name; the registry deletes by
	// (Updated, ID). The paper's Figure 3 depends on these differing.
	store, client, day := newEnv(t)
	seedPending(t, store, "zzz.com", day)
	seedPending(t, store, "aaa.com", day)
	entries, err := client.Fetch(context.Background(), day)
	if err != nil {
		t.Fatal(err)
	}
	if entries[0].Name != "aaa.com" || entries[1].Name != "zzz.com" {
		t.Fatalf("list not name-sorted: %+v", entries)
	}
}

func TestServerOverTCP(t *testing.T) {
	store, _, day := newEnv(t)
	seedPending(t, store, "tcp.com", day)
	srv := NewServer(store)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := NewClient("http://"+addr.String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := client.Fetch(context.Background(), day)
	if err != nil || len(entries) != 1 {
		t.Fatalf("TCP fetch: %+v %v", entries, err)
	}
}

// TestMethodNotAllowed: the list answers GET and HEAD, HEAD with GET's
// headers and no body; any other method is a 405 that names the allowed ones
// (RFC 9110 §15.5.6).
func TestMethodNotAllowed(t *testing.T) {
	store, _, day := newEnv(t)
	seedPending(t, store, "head.com", day)
	hs := httptest.NewServer(NewServer(store).Handler())
	defer hs.Close()
	do := func(method string) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(method, hs.URL+"/pendingdelete?date="+day.String(), nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := hs.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}
	if resp, body := do(http.MethodPost); resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != "GET, HEAD" {
		t.Fatalf("POST: %d, Allow %q, body %q", resp.StatusCode, resp.Header.Get("Allow"), body)
	}
	get, getBody := do(http.MethodGet)
	head, headBody := do(http.MethodHead)
	if head.StatusCode != http.StatusOK || len(headBody) != 0 || len(getBody) == 0 || head.ContentLength != int64(len(getBody)) ||
		head.Header.Get("Etag") != get.Header.Get("Etag") {
		t.Fatalf("HEAD: %d, headers %v, %d body bytes; GET: headers %v, %d body bytes", head.StatusCode, head.Header, len(headBody), get.Header, len(getBody))
	}
}

// get performs one GET against the server's handler, returning the recorder.
func get(t *testing.T, srv *Server, day simtime.Day, etag string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", "/pendingdelete?date="+day.String(), nil)
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, req)
	return w
}

// TestServeCachedEqualsFreshAcrossDrops is the tentpole's differential
// invariant: every cached response is byte-identical to a freshly rendered
// one (a brand-new Server with an empty cache), across a multi-day run with
// Drop mutations in between. A fresh one is, whole and narrowed to one TLD,
// what csv.Writer writes for the window's entries (RenderEntries).
func TestServeCachedEqualsFreshAcrossDrops(t *testing.T) {
	store, _, day := newEnv(t)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 40; i++ {
		seedPending(t, store, fmt.Sprintf("diff%02d.%s", i, []model.TLD{model.COM, model.NET}[i%3/2]), day.AddDays(i%7))
	}
	csvWriterEqual := func(d simtime.Day) {
		t.Helper()
		window := store.PendingDeletions(d, LookaheadDays)
		if got, want := get(t, NewServer(store), d, "").Body.Bytes(), RenderEntries(window); len(window) == 0 || !bytes.Equal(got, want) {
			t.Fatalf("day %v: served\n%s\ncsv.Writer\n%s", d, got, want)
		}
		net := slices.DeleteFunc(window, func(e Entry) bool { return !strings.HasSuffix(e.Name, ".net") })
		if got, want := renderWindow(store, d, LookaheadDays, map[model.TLD]bool{model.NET: true}), RenderEntries(net); len(net) == 0 || !bytes.Equal(got, want) {
			t.Fatalf("day %v: .net list\n%s\ncsv.Writer\n%s", d, got, want)
		}
	}
	cached := NewServer(store)
	runner := registry.NewDropRunner(store, registry.DropConfig{StartHour: 19, BaseRatePerSec: 50})
	for d := day; d.Before(day.AddDays(5)); d = d.Next() {
		// Two cached fetches (cold, then warm) against one fresh render.
		first := get(t, cached, d, "")
		second := get(t, cached, d, "")
		fresh := get(t, NewServer(store), d, "")
		if first.Code != 200 || second.Code != 200 || fresh.Code != 200 {
			t.Fatalf("day %v: status %d/%d/%d", d, first.Code, second.Code, fresh.Code)
		}
		if !bytes.Equal(first.Body.Bytes(), fresh.Body.Bytes()) {
			t.Fatalf("day %v: cold cached body != fresh body", d)
		}
		if !bytes.Equal(second.Body.Bytes(), fresh.Body.Bytes()) {
			t.Fatalf("day %v: warm cached body != fresh body", d)
		}
		if cl := second.Header().Get("Content-Length"); cl != strconv.Itoa(second.Body.Len()) {
			t.Fatalf("day %v: Content-Length %q != body %d", d, cl, second.Body.Len())
		}
		csvWriterEqual(d)
		// Mutate: run the day's Drop, then re-check the next window reflects it.
		if _, err := runner.Run(d, rng); err != nil {
			t.Fatal(err)
		}
		after := get(t, cached, d, "")
		freshAfter := get(t, NewServer(store), d, "")
		if !bytes.Equal(after.Body.Bytes(), freshAfter.Body.Bytes()) {
			t.Fatalf("day %v: post-Drop cached body != fresh body", d)
		}
		if bytes.Equal(after.Body.Bytes(), first.Body.Bytes()) {
			t.Fatalf("day %v: Drop did not change the served list", d)
		}
	}
}

// TestETagNotModified pins the conditional-request flow: a stable strong
// ETag while the store is unchanged, 304 on If-None-Match, and a fresh 200
// (never a stale 304) after any mutation.
func TestETagNotModified(t *testing.T) {
	store, _, day := newEnv(t)
	seedPending(t, store, "etag.com", day)
	srv := NewServer(store)

	first := get(t, srv, day, "")
	etag := first.Header().Get("ETag")
	if etag == "" || first.Code != 200 {
		t.Fatalf("first fetch: status %d, ETag %q", first.Code, etag)
	}
	if again := get(t, srv, day, ""); again.Header().Get("ETag") != etag {
		t.Fatalf("ETag unstable on unchanged store: %q then %q", etag, again.Header().Get("ETag"))
	}
	cond := get(t, srv, day, etag)
	if cond.Code != http.StatusNotModified || cond.Body.Len() != 0 {
		t.Fatalf("conditional fetch: status %d, body %d bytes", cond.Code, cond.Body.Len())
	}
	if cond.Header().Get("ETag") != etag {
		t.Fatalf("304 missing ETag")
	}

	// Any store mutation must change the ETag and defeat the 304.
	seedPending(t, store, "etag2.com", day)
	after := get(t, srv, day, etag)
	if after.Code != 200 {
		t.Fatalf("post-mutation conditional fetch: status %d, want 200 (stale 304?)", after.Code)
	}
	if after.Header().Get("ETag") == etag {
		t.Fatal("ETag unchanged across mutation")
	}
	if !strings.Contains(after.Body.String(), "etag2.com") {
		t.Fatal("post-mutation body missing new domain")
	}
}

// errAfterWriter fails every Write after the first n bytes, standing in for
// a client that hangs up mid-body.
type errAfterWriter struct {
	h       http.Header
	status  int
	written int
	limit   int
}

func (w *errAfterWriter) Header() http.Header { return w.h }
func (w *errAfterWriter) WriteHeader(s int)   { w.status = s }
func (w *errAfterWriter) Write(p []byte) (int, error) {
	if w.written+len(p) > w.limit {
		n := w.limit - w.written
		w.written = w.limit
		return n, fmt.Errorf("connection reset")
	}
	w.written += len(p)
	return len(p), nil
}

// TestTruncatedWriteDetectable is the regression test for the silently
// truncated 200: the response must declare its full Content-Length before
// the body is written (so a client can detect the short read), and the
// server must count the failed write instead of swallowing it.
func TestTruncatedWriteDetectable(t *testing.T) {
	store, _, day := newEnv(t)
	for i := 0; i < 50; i++ {
		seedPending(t, store, fmt.Sprintf("trunc%02d.com", i), day)
	}
	srv := NewServer(store)
	full := get(t, srv, day, "")
	want := full.Body.Len()
	if cl := full.Header().Get("Content-Length"); cl != strconv.Itoa(want) {
		t.Fatalf("Content-Length = %q, body = %d bytes", cl, want)
	}

	w := &errAfterWriter{h: make(http.Header), limit: want / 2}
	req := httptest.NewRequest("GET", "/pendingdelete?date="+day.String(), nil)
	srv.Handler().ServeHTTP(w, req)
	if cl := w.h.Get("Content-Length"); cl != strconv.Itoa(want) {
		t.Fatalf("truncated response Content-Length = %q, want %d", cl, want)
	}
	if w.written >= want {
		t.Fatal("writer did not truncate")
	}
	if m := srv.Metrics(); m.WriteErrors != 1 {
		t.Fatalf("WriteErrors = %d, want 1", m.WriteErrors)
	}
}

// TestConcurrentGETsDuringDrop hammers the list endpoint while a Drop purges
// the store. Run with -race; every response must be internally consistent
// (Content-Length matches the body) and parseable.
func TestConcurrentGETsDuringDrop(t *testing.T) {
	store, _, day := newEnv(t)
	for i := 0; i < 300; i++ {
		seedPending(t, store, fmt.Sprintf("race%03d.com", i), day.AddDays(i%3))
	}
	srv := NewServer(store)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec := get(t, srv, day, "")
				if rec.Code != 200 {
					t.Errorf("status %d", rec.Code)
					return
				}
				if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
					t.Errorf("Content-Length %q != body %d", cl, rec.Body.Len())
					return
				}
				if _, err := ParseList(bytes.NewReader(rec.Body.Bytes())); err != nil {
					t.Errorf("unparseable body: %v", err)
					return
				}
			}
		}()
	}
	runner := registry.NewDropRunner(store, registry.DropConfig{StartHour: 19, BaseRatePerSec: 200})
	rng := rand.New(rand.NewSource(3))
	for d := day; d.Before(day.AddDays(3)); d = d.Next() {
		if _, err := runner.Run(d, rng); err != nil {
			t.Error(err)
		}
	}
	close(stop)
	wg.Wait()
	// After the Drops, the cache must converge back to fresh-equal bytes.
	want := get(t, NewServer(store), day, "")
	got := get(t, srv, day, "")
	if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Fatal("cached body diverged from fresh render after Drops")
	}
}

// TestMetricsCounters sanity-checks the request/hit accounting dropserve
// logs on shutdown.
func TestMetricsCounters(t *testing.T) {
	store, _, day := newEnv(t)
	seedPending(t, store, "m.com", day)
	srv := NewServer(store)
	get(t, srv, day, "")
	get(t, srv, day, "")
	get(t, srv, day, "")
	m := srv.Metrics()
	if m.Requests != 3 || m.Cache.Misses != 1 || m.Cache.Hits != 2 {
		t.Fatalf("metrics = %+v", m)
	}
	if r := m.Cache.HitRatio(); r < 0.6 || r > 0.7 {
		t.Fatalf("hit ratio = %v", r)
	}
}

// TestBoundClientMatchesHTTP: a bound client and an HTTP client of the same
// server, fetching the same five consecutive days while names keep joining
// the window, get the same entries and are counted as the same requests.
// The bound client takes its entries from the store: it leaves the list
// cache alone, and its names are the store's own strings.
func TestBoundClientMatchesHTTP(t *testing.T) {
	store, _, day := newEnv(t)
	srv := NewServer(store)
	httpc, err := NewClient("http://scope.test", inproc.Client(srv.Handler()))
	if err != nil {
		t.Fatal(err)
	}
	bound := NewBoundClient(srv)
	for i := 0; i < 20; i++ {
		seedPending(t, store, fmt.Sprintf("seed%02d.com", i), day.AddDays(i%8))
	}
	ctx := context.Background()
	for d := 0; d < LookaheadDays; d++ {
		today := day.AddDays(d)
		seedPending(t, store, fmt.Sprintf("late%d.net", d), today.AddDays(LookaheadDays-1))
		before := srv.Metrics()
		fromHTTP, herr := httpc.Fetch(ctx, today)
		afterHTTP := srv.Metrics()
		fromBound, berr := bound.Fetch(ctx, today)
		if herr != nil || berr != nil || len(fromHTTP) == 0 || !slices.Equal(fromHTTP, fromBound) {
			t.Fatalf("%s: HTTP %v (%v), bound %v (%v)", today, fromHTTP, herr, fromBound, berr)
		}
		if n := srv.Metrics().Requests - before.Requests; n != 2 {
			t.Errorf("%s: %d requests counted for two fetches", today, n)
		}
		if srv.Metrics().Cache != afterHTTP.Cache {
			t.Errorf("%s: a bound fetch moved the list cache: %+v, then %+v", today, afterHTTP.Cache, srv.Metrics().Cache)
		}
		for _, e := range fromBound {
			if d, _ := store.Lookup(e.Name); unsafe.StringData(d.Name) != unsafe.StringData(e.Name) {
				t.Fatalf("%s: bound entry %q is a copy of the store's name", today, e.Name)
			}
		}
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	for transport, c := range map[string]*Client{"HTTP": httpc, "bound": bound} {
		before := srv.Metrics().Requests
		if _, err := c.Fetch(cancelled, day); !errors.Is(err, context.Canceled) {
			t.Errorf("%s Fetch under a cancelled context = %v", transport, err)
		}
		if n := srv.Metrics().Requests - before; n != 0 {
			t.Errorf("a cancelled %s Fetch was counted: %d requests", transport, n)
		}
	}
}
