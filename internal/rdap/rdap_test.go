package rdap

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dropzero/internal/gctest"
	"dropzero/internal/inproc"
	"dropzero/internal/model"
	"dropzero/internal/registry"
	"dropzero/internal/simtime"
)

func newEnv(t *testing.T, cfg ServerConfig) (*registry.Store, *Client) {
	t.Helper()
	clock := simtime.NewSimClock(time.Date(2018, 1, 1, 12, 0, 0, 0, time.UTC))
	store := registry.NewStore(clock)
	store.AddRegistrar(model.Registrar{
		IANAID: 1000, Name: "Test Registrar",
		Contact: model.Contact{Org: "Test Org", Email: "ops@test.example", Phone: "+1.5550001111"},
	})
	store.AddRegistrar(model.Registrar{IANAID: 1727, Name: "Papaki Ltd"})
	srv := NewServer(store, cfg)
	client := inprocClient(t, srv.Handler())
	return store, client
}

// inprocClient is an HTTP client of h over the in-process transport.
func inprocClient(tb testing.TB, h http.Handler) *Client {
	tb.Helper()
	c, err := NewClient("http://rdap.test", inproc.Client(h))
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

func TestDomainLookup(t *testing.T) {
	store, client := newEnv(t, ServerConfig{})
	d, err := store.Create("example.com", 1000, 2)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Domain(context.Background(), "example.com")
	if err != nil {
		t.Fatal(err)
	}
	if resp.ObjectClassName != "domain" || resp.LDHName != "example.com" {
		t.Fatalf("response: %+v", resp)
	}
	id, err := ParseHandle(resp.Handle)
	if err != nil || id != d.ID {
		t.Fatalf("handle %q -> %d, %v", resp.Handle, id, err)
	}
	reg, ok := resp.EventDate(EventRegistration)
	if !ok || !reg.Equal(d.Created) {
		t.Fatalf("registration event: %v %v", reg, ok)
	}
	upd, ok := resp.EventDate(EventLastChanged)
	if !ok || !upd.Equal(d.Updated) {
		t.Fatalf("last changed event: %v %v", upd, ok)
	}
	exp, ok := resp.EventDate(EventExpiration)
	if !ok || !exp.Equal(d.Expiry) {
		t.Fatalf("expiration event: %v %v", exp, ok)
	}
	if len(resp.Entities) != 1 || resp.Entities[0].Handle != "1000" {
		t.Fatalf("entities: %+v", resp.Entities)
	}
	if resp.Entities[0].VCard["org"] != "Test Org" {
		t.Fatalf("vcard: %+v", resp.Entities[0].VCard)
	}
	if len(resp.Status) != 1 || resp.Status[0] != "active" {
		t.Fatalf("status: %v", resp.Status)
	}
}

func TestDomainNotFound(t *testing.T) {
	_, client := newEnv(t, ServerConfig{})
	_, err := client.Domain(context.Background(), "missing.com")
	if !errors.Is(err, ErrNotFound) || err.Error() != "rdap: domain not registered: missing.com" {
		t.Fatalf("missing = %v, want ErrNotFound naming the domain", err)
	}
}

func TestFailureInjection(t *testing.T) {
	store, client := newEnv(t, ServerConfig{FailRegistrars: map[int]int{1727: http.StatusInternalServerError}})
	store.Create("broken.com", 1727, 1)
	store.Create("fine.com", 1000, 1)
	_, err := client.Domain(context.Background(), "broken.com")
	if !errors.Is(err, ErrServer) {
		t.Fatalf("broken registrar = %v, want ErrServer", err)
	}
	if _, err := client.Domain(context.Background(), "fine.com"); err != nil {
		t.Fatalf("healthy registrar = %v", err)
	}
}

func TestParseHandle(t *testing.T) {
	id, err := ParseHandle("42_DOMAIN_COM-VRSN")
	if err != nil || id != 42 {
		t.Fatalf("ParseHandle = %d, %v", id, err)
	}
	if _, err := ParseHandle("abc"); err == nil {
		t.Fatal("malformed handle accepted")
	}
	id, err = ParseHandle("7")
	if err != nil || id != 7 {
		t.Fatalf("bare numeric handle = %d, %v", id, err)
	}
}

func TestEventDateMissing(t *testing.T) {
	dr := &DomainResponse{}
	if _, ok := dr.EventDate(EventRegistration); ok {
		t.Fatal("missing event reported present")
	}
}

func TestServerOverTCP(t *testing.T) {
	clock := simtime.NewSimClock(time.Date(2018, 1, 1, 12, 0, 0, 0, time.UTC))
	store := registry.NewStore(clock)
	store.AddRegistrar(model.Registrar{IANAID: 1000})
	store.Create("tcp.com", 1000, 1)
	srv := NewServer(store, ServerConfig{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := NewClient("http://"+addr.String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Domain(context.Background(), "tcp.com")
	if err != nil || resp.LDHName != "tcp.com" {
		t.Fatalf("TCP lookup: %+v %v", resp, err)
	}
}

func TestHelpEndpoint(t *testing.T) {
	clock := simtime.NewSimClock(time.Date(2018, 1, 1, 12, 0, 0, 0, time.UTC))
	store := registry.NewStore(clock)
	srv := NewServer(store, ServerConfig{})
	httpc := inproc.Client(srv.Handler())
	resp, err := httpc.Get("http://rdap.test/help")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("help: %v %v", resp, err)
	}
	resp.Body.Close()
}

// TestMethodNotAllowed: a domain answers GET and HEAD (RFC 7480 §4.1), HEAD
// with GET's headers and no body; any other method is a 405 that names the
// allowed ones (RFC 9110 §15.5.6) in an RFC 7483 error body. All are counted.
func TestMethodNotAllowed(t *testing.T) {
	store, _ := newEnv(t, ServerConfig{})
	if _, err := store.Create("x.com", 1000, 1); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store, ServerConfig{})
	httpc := inproc.Client(srv.Handler())
	do := func(method string) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(method, "http://rdap.test/domain/x.com", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := httpc.Do(req)
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
	resp, body := do(http.MethodPost)
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != "GET, HEAD" || !bytes.Contains(body, []byte(`"errorCode":405`)) {
		t.Fatalf("POST: %d, Allow %q, body %s", resp.StatusCode, resp.Header.Get("Allow"), body)
	}
	get, getBody := do(http.MethodGet)
	head, headBody := do(http.MethodHead)
	if head.StatusCode != http.StatusOK || len(headBody) != 0 || head.Header.Get("Content-Length") != strconv.Itoa(len(getBody)) ||
		head.Header.Get("Etag") != get.Header.Get("Etag") || head.Header.Get("Content-Type") != get.Header.Get("Content-Type") {
		t.Fatalf("HEAD: %d, headers %v, %d body bytes; GET: headers %v, %d body bytes", head.StatusCode, head.Header, len(headBody), get.Header, len(getBody))
	}
	if n := srv.Metrics().Requests; n != 3 {
		t.Errorf("%d requests counted for three", n)
	}
}

func TestMalformedName(t *testing.T) {
	_, client := newEnv(t, ServerConfig{})
	_, err := client.Domain(context.Background(), "")
	if err == nil {
		t.Fatal("empty name accepted")
	}
}

func rdapGet(t *testing.T, srv *Server, name, etag string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", "/domain/"+name, nil)
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, req)
	return w
}

// toResponse is the reference (uncached, reflection-encoded) form of a
// domain: the oracle for the append renderer and the response cache.
func (s *Server) toResponse(d *model.Domain) *DomainResponse {
	reg, found := s.store.Registrar(d.RegistrarID)
	return &DomainResponse{
		ObjectClassName: "domain",
		Handle:          fmt.Sprintf("%d_DOMAIN_%s-VRSN", d.ID, strings.ToUpper(string(d.TLD))),
		LDHName:         d.Name,
		Status:          []string{d.Status.String()},
		Events: []Event{
			{Action: EventRegistration, Date: d.Created},
			{Action: EventLastChanged, Date: d.Updated},
			{Action: EventExpiration, Date: d.Expiry},
		},
		Entities: []Entity{registrarEntity(d.RegistrarID, reg, found)},
	}
}

// reference renders a domain the pre-cache way — one json.Encoder pass over
// the full struct — serving as the byte-level oracle for the spliced and
// cached encodings.
func reference(t *testing.T, srv *Server, name string) []byte {
	t.Helper()
	d, err := srv.store.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(srv.toResponse(d)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCachedEqualsFreshAcrossDrops is the differential invariant for RDAP:
// cold and warm cached bodies must be byte-identical to the reference
// encoding, across days of Drop mutations and re-registrations.
func TestCachedEqualsFreshAcrossDrops(t *testing.T) {
	clock := simtime.NewSimClock(time.Date(2018, 1, 10, 9, 0, 0, 0, time.UTC))
	store := registry.NewStore(clock)
	store.AddRegistrar(model.Registrar{
		IANAID: 1000, Name: "Alpha Registrar",
		Contact: model.Contact{Org: "Alpha <Org>", Email: "ops@alpha.example", Street: "1 Way", City: "Reston", Country: "US", Phone: "+1.5550001111"},
	})
	store.AddRegistrar(model.Registrar{IANAID: 1001, Name: "Beta Registrar"})
	day := simtime.Day{Year: 2018, Month: time.January, Dom: 10}
	names := make([]string, 30)
	for i := range names {
		names[i] = fmt.Sprintf("rd%02d.com", i)
		updated := day.AddDays(-35).At(6, 0, 0)
		if _, err := store.SeedAt(names[i], 1000+i%2, updated.AddDate(-1, 0, 0), updated,
			updated.AddDate(0, 0, -30), model.StatusPendingDelete, day.AddDays(i%4)); err != nil {
			t.Fatal(err)
		}
	}
	srv := NewServer(store, ServerConfig{})
	runner := registry.NewDropRunner(store, registry.DropConfig{StartHour: 19, BaseRatePerSec: 50})
	rng := rand.New(rand.NewSource(11))
	for d := day; d.Before(day.AddDays(4)); d = d.Next() {
		for _, name := range names {
			if _, err := store.Get(name); err != nil {
				continue // already dropped
			}
			cold := rdapGet(t, srv, name, "")
			warm := rdapGet(t, srv, name, "")
			want := reference(t, srv, name)
			if cold.Code != 200 || warm.Code != 200 {
				t.Fatalf("%s: status %d/%d", name, cold.Code, warm.Code)
			}
			if !bytes.Equal(cold.Body.Bytes(), want) {
				t.Fatalf("%s: cold cached body differs from reference\n got %s\nwant %s", name, cold.Body.Bytes(), want)
			}
			if !bytes.Equal(warm.Body.Bytes(), want) {
				t.Fatalf("%s: warm cached body differs from reference", name)
			}
			if cl := warm.Header().Get("Content-Length"); cl != strconv.Itoa(len(want)) {
				t.Fatalf("%s: Content-Length %q, body %d", name, cl, len(want))
			}
		}
		if _, err := runner.Run(d, rng); err != nil {
			t.Fatal(err)
		}
	}
}

// TestNoStaleAfterDropAndRecreate pins the lifecycle-transition staleness
// case from the issue: after a Drop purges a name and the market re-creates
// it, the server must serve the new registration — neither the old cached
// body nor a stale 304 for the old validator.
func TestNoStaleAfterDropAndRecreate(t *testing.T) {
	clock := simtime.NewSimClock(time.Date(2018, 1, 10, 9, 0, 0, 0, time.UTC))
	store := registry.NewStore(clock)
	store.AddRegistrar(model.Registrar{IANAID: 1000, Name: "Old Sponsor"})
	store.AddRegistrar(model.Registrar{IANAID: 1001, Name: "Drop Catcher"})
	day := simtime.Day{Year: 2018, Month: time.January, Dom: 10}
	updated := day.AddDays(-35).At(6, 0, 0)
	if _, err := store.SeedAt("contested.com", 1000, updated.AddDate(-3, 0, 0), updated,
		updated.AddDate(0, 0, -30), model.StatusPendingDelete, day); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store, ServerConfig{})

	before := rdapGet(t, srv, "contested.com", "")
	oldETag := before.Header().Get("ETag")
	if before.Code != 200 || oldETag == "" {
		t.Fatalf("pre-drop fetch: status %d, ETag %q", before.Code, oldETag)
	}

	runner := registry.NewDropRunner(store, registry.DropConfig{StartHour: 19, BaseRatePerSec: 10})
	if _, err := runner.Run(day, rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	if gone := rdapGet(t, srv, "contested.com", oldETag); gone.Code != http.StatusNotFound {
		t.Fatalf("post-drop fetch: status %d, want 404 (stale cache?)", gone.Code)
	}

	// The zero-second re-registration: a different sponsor re-creates it.
	if _, err := store.CreateAt("contested.com", 1001, 1, day.At(19, 0, 1)); err != nil {
		t.Fatal(err)
	}
	after := rdapGet(t, srv, "contested.com", oldETag)
	if after.Code != 200 {
		t.Fatalf("post-recreate conditional fetch: status %d, want 200 (stale 304?)", after.Code)
	}
	if after.Header().Get("ETag") == oldETag {
		t.Fatal("ETag unchanged across drop and re-registration")
	}
	if bytes.Equal(after.Body.Bytes(), before.Body.Bytes()) {
		t.Fatal("re-registration served the old cached body")
	}
	var resp DomainResponse
	if err := json.Unmarshal(after.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Entities) != 1 || resp.Entities[0].Handle != "1001" {
		t.Fatalf("entities after re-registration: %+v", resp.Entities)
	}
	if resp.Status[0] != "active" {
		t.Fatalf("status after re-registration: %v", resp.Status)
	}
}

// TestConditionalDomainFetch pins the 304 flow on the RDAP surface.
func TestConditionalDomainFetch(t *testing.T) {
	store, _ := newEnv(t, ServerConfig{})
	if _, err := store.Create("cond.com", 1000, 2); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store, ServerConfig{})
	first := rdapGet(t, srv, "cond.com", "")
	etag := first.Header().Get("ETag")
	if etag == "" {
		t.Fatal("no ETag on 200")
	}
	cond := rdapGet(t, srv, "cond.com", etag)
	if cond.Code != http.StatusNotModified || cond.Body.Len() != 0 {
		t.Fatalf("conditional: status %d, %d body bytes", cond.Code, cond.Body.Len())
	}
	if err := store.Touch("cond.com", 1000); err != nil {
		t.Fatal(err)
	}
	if after := rdapGet(t, srv, "cond.com", etag); after.Code != 200 {
		t.Fatalf("post-touch conditional: status %d, want 200", after.Code)
	}
	m := srv.Metrics()
	if m.Requests != 3 || m.Cache.Hits != 1 {
		t.Fatalf("metrics = %+v", m)
	}
}

// TestNotFoundUncached ensures 404s never carry validators and never stick.
func TestNotFoundUncached(t *testing.T) {
	store, _ := newEnv(t, ServerConfig{})
	srv := NewServer(store, ServerConfig{})
	miss := rdapGet(t, srv, "ghost.com", "")
	if miss.Code != http.StatusNotFound {
		t.Fatalf("status %d", miss.Code)
	}
	if miss.Header().Get("ETag") != "" {
		t.Fatal("404 carried an ETag")
	}
	if _, err := store.Create("ghost.com", 1000, 1); err != nil {
		t.Fatal(err)
	}
	if hit := rdapGet(t, srv, "ghost.com", ""); hit.Code != 200 {
		t.Fatalf("post-create status %d (negative response cached?)", hit.Code)
	}
}

// TestConcurrentDomainGETsDuringDrop hammers domain lookups while a Drop
// purges; run with -race. Responses must be the current state's reference
// bytes or a 404 — never a mix.
func TestConcurrentDomainGETsDuringDrop(t *testing.T) {
	clock := simtime.NewSimClock(time.Date(2018, 1, 10, 9, 0, 0, 0, time.UTC))
	store := registry.NewStore(clock)
	store.AddRegistrar(model.Registrar{IANAID: 1000, Name: "R"})
	day := simtime.Day{Year: 2018, Month: time.January, Dom: 10}
	updated := day.AddDays(-35).At(6, 0, 0)
	names := make([]string, 200)
	for i := range names {
		names[i] = fmt.Sprintf("cc%03d.com", i)
		if _, err := store.SeedAt(names[i], 1000, updated.AddDate(-1, 0, 0), updated,
			updated.AddDate(0, 0, -30), model.StatusPendingDelete, day.AddDays(i%2)); err != nil {
			t.Fatal(err)
		}
	}
	srv := NewServer(store, ServerConfig{})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				name := names[(i*7+w)%len(names)]
				rec := rdapGet(t, srv, name, "")
				switch rec.Code {
				case 200:
					var resp DomainResponse
					if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
						t.Errorf("%s: bad body: %v", name, err)
						return
					}
					if resp.LDHName != name {
						t.Errorf("got %q for %q", resp.LDHName, name)
						return
					}
				case 404:
				default:
					t.Errorf("%s: status %d", name, rec.Code)
					return
				}
			}
		}(w)
	}
	runner := registry.NewDropRunner(store, registry.DropConfig{StartHour: 19, BaseRatePerSec: 100})
	rng := rand.New(rand.NewSource(5))
	for d := day; d.Before(day.AddDays(2)); d = d.Next() {
		if _, err := runner.Run(d, rng); err != nil {
			t.Error(err)
		}
	}
	close(stop)
	wg.Wait()
	for _, name := range names {
		if _, err := store.Get(name); err != nil {
			continue
		}
		got := rdapGet(t, srv, name, "")
		if !bytes.Equal(got.Body.Bytes(), reference(t, srv, name)) {
			t.Fatalf("%s: cached body diverged from reference after Drops", name)
		}
	}
}

// TestClosedServerIsCollectable: a closed server nobody references must not
// keep its store — and up to a cache's worth of rendered bodies — alive
// past the next collection. The request is a cold render, so it goes
// through the render-buffer pool.
func TestClosedServerIsCollectable(t *testing.T) {
	gctest.Collected(t, func() *registry.Store {
		store := registry.NewStore(simtime.NewSimClock(time.Date(2018, 1, 1, 12, 0, 0, 0, time.UTC)))
		store.AddRegistrar(model.Registrar{IANAID: 1000, Name: "Test Registrar"})
		if _, err := store.Create("collect.com", 1000, 1); err != nil {
			t.Fatal(err)
		}
		srv := NewServer(store, ServerConfig{})
		client := inprocClient(t, srv.Handler())
		if _, err := client.Domain(context.Background(), "collect.com"); err != nil {
			t.Fatal(err)
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		return store
	})
}
