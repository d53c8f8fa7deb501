package rdap

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dropzero/internal/inproc"
	"dropzero/internal/model"
	"dropzero/internal/registry"
	"dropzero/internal/simtime"
)

// wireServer is a server over two accreditations, one of them with contact
// data that needs every kind of JSON escaping.
func wireServer(tb testing.TB) *Server {
	tb.Helper()
	store := registry.NewStore(simtime.NewSimClock(time.Date(2018, 1, 1, 12, 0, 0, 0, time.UTC)))
	store.AddRegistrar(model.Registrar{
		IANAID: 1000, Name: "Alpha <Registrar> & \"Sons\"",
		Contact: model.Contact{Org: "Al\u2028pha\\Org", Email: "ops@alpha.example", Street: "1 \xff Way", City: "Reston\t", Country: "US", Phone: "+1.5550001111"},
	})
	store.AddRegistrar(model.Registrar{IANAID: 1001, Name: "Beta Registrar"})
	return NewServer(store, ServerConfig{FailRegistrars: map[int]int{1001: http.StatusServiceUnavailable}})
}

// encodeJSON is the parent implementation of every RDAP body: one
// json.Encoder pass over the value.
func encodeJSON(tb testing.TB, v any) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// get serves one request straight through the domain handler with the path
// taken as it is: httptest.NewRequest would refuse, and the mux redirect,
// some of the names the fuzzer comes up with.
func get(srv *Server, method, path string) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	srv.handleDomain(w, &http.Request{Method: method, URL: &url.URL{Path: path}})
	return w
}

// checkDecode holds the cursor decoder to json.Unmarshal on one body.
func checkDecode(t *testing.T, body []byte) (accepted bool) {
	t.Helper()
	var got, want DomainResponse
	if err := decodeDomainResponse(body, &got); err != nil {
		return false
	}
	if err := json.Unmarshal(body, &want); err != nil {
		t.Fatalf("cursor decoder accepted what encoding/json rejects (%v):\n%q", err, body)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decode drift on %q:\n got %#v\nwant %#v", body, got, want)
	}
	return true
}

// decodeCorpus is bodies on which the decoder must agree with encoding/json
// and which a hand-rolled decoder gets wrong first.
var decodeCorpus = []string{
	`null`, ` null `, `{}`, `[]`, `5`, `"x"`, `nullx`, `{} x`, ``,
	`{"handle":"1_DOMAIN_COM-VRSN","ldhName":"a.com","status":["active"],"events":[{"eventAction":"registration","eventDate":"2018-01-01T12:00:00Z"}]}`,
	// Keys resolve exactly, then under Unicode case folding (U+017F folds to s, U+212A to k).
	`{"HANDLE":"h","LdhName":"l","\u017ftatus":["x"],"ſtatus":["y"],"objectclassname":"o"}`,
	`{"h\u0061ndle":"escaped key"}`,
	// null per kind: strings and structs stay, slices and maps become nil.
	`{"handle":"h","handle":null,"status":["a"],"status":null,"events":null,"entities":[null,{"vcard":null,"roles":null}]}`,
	`{"entities":[{"vcard":{"a":"1"}},{"vcard":{"a":null,"b":"2"}}],"entities":[{"vcard":{"c":"3"}}]}`,
	`{"events":[{"eventAction":"a","eventDate":null},null]}`,
	// Repeated fields decode over the earlier value's elements.
	`{"status":["a","b","c"],"status":["x"],"status":[null,null,null,null]}`,
	`{"events":[{"eventAction":"a","eventDate":"2018-01-01T00:00:00Z"},{"eventAction":"b"}],"events":[{}],"events":[{},{},{}]}`,
	`{"status":["a"],"status":[]}`, `{"status":[]}`, `{"entities":[{"publicIds":[]}]}`,
	// Unknown fields of every shape are skipped, with strict syntax.
	`{"x":{"y":[1,-0.5e+3,true,false,null,"s",{"z":[]}]},"handle":"h"}`,
	`{"x":01}`, `{"x":1.}`, `{"x":-}`, `{"x":[}]}`, `{"x":{]}`, `{"x":tru}`, `{"x":1e}`, `{"x":.5}`,
	`{"x":1,}`, `{"x":[1,]}`, `{"x" 1}`, `{x:1}`, `{"x":"\q"}`, `{"x":"\ud800"}`, `{"x":"\ud800\udc00"}`,
	// Wrong-typed values are errors.
	`{"handle":5}`, `{"status":"active"}`, `{"status":[5]}`, `{"events":{}}`, `{"events":[[]]}`,
	`{"entities":[{"vcard":[]}]}`, `{"entities":[{"vcard":{"a":5}}]}`, `{"events":[{"eventDate":5}]}`,
	// Timestamps go through time.Time.UnmarshalJSON untouched.
	`{"events":[{"eventDate":"2018-03-08T19:00:00.123456789+05:30"}]}`,
	`{"events":[{"eventDate":"2018-03-08T19:00:00\u005a"}]}`, `{"events":[{"eventDate":"yesterday"}]}`,
	`{"events":[{"eventDate":"2018-03-08t19:00:00z"}]}`, `{"events":[{"eventDate":""}]}`,
	// Invalid UTF-8 becomes U+FFFD byte by byte, in values, keys and map keys.
	"{\"handle\":\"a\xff\xfeb\xc3\",\"ldhName\":\"\xe2\x82\\u00e9\",\"entities\":[{\"vcard\":{\"k\xff\":\"v\xc0\"}}]}",
	"{\"hand\xffle\":\"x\"}",
	"{\"handle\":\"tab\there\"}",
	strings.Repeat("[", 10001), `{"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`,
	`{"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `,"handle":"deep"}`,
}

func TestDecodeDomainMatchesJSON(t *testing.T) {
	accepted := 0
	for _, body := range decodeCorpus {
		if checkDecode(t, []byte(body)) {
			accepted++
		}
	}
	// The corpus must exercise the value comparison, not only the rejections.
	if accepted < 15 {
		t.Fatalf("only %d of %d corpus bodies decoded", accepted, len(decodeCorpus))
	}
	for _, body := range []string{`{"x":01}`, `{"x":[}]}`, `{"status":"active"}`, `{"handle":"h"} x`, strings.Repeat("[", 10001)} {
		if err := decodeDomainResponse([]byte(body), new(DomainResponse)); err == nil {
			t.Errorf("decoder accepted %.40q", body)
		}
	}
}

// FuzzDecodeDomainMatchesJSON: on arbitrary bytes the cursor decoder never
// panics, and whenever it accepts a body it yields exactly the value
// json.Unmarshal does.
func FuzzDecodeDomainMatchesJSON(f *testing.F) {
	srv := wireServer(f)
	for _, d := range renderSeeds() {
		if body, ok := srv.appendDomain(nil, d); ok {
			f.Add(body)
		}
	}
	for _, body := range decodeCorpus {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkDecode(t, body) })
}

func renderSeeds() []*model.Domain {
	at := time.Date(2018, 3, 8, 19, 0, 0, 0, time.UTC)
	return []*model.Domain{
		{ID: 42, Name: "example.com", TLD: model.COM, RegistrarID: 1000, Created: at.AddDate(-3, 0, 0), Updated: at, Expiry: at.AddDate(1, 0, 0), Status: model.StatusPendingDelete},
		{ID: 1<<64 - 1, Name: "unknown-sponsor.net", TLD: model.NET, RegistrarID: 7, Created: at, Updated: at, Expiry: at},
		{ID: 7, Name: "<b>&\u2028\xff.se", TLD: "s<e", RegistrarID: 1001, Created: at.In(time.FixedZone("", 19800)).Add(123456789), Updated: at, Expiry: at, Status: 200},
	}
}

// checkRender holds the append renderer to the json.Encoder rendering of
// toResponse, and the client decoder to what it emits.
func checkRender(t *testing.T, srv *Server, d *model.Domain) {
	t.Helper()
	var want bytes.Buffer
	jerr := json.NewEncoder(&want).Encode(srv.toResponse(d))
	got, ok := srv.appendDomain(nil, d)
	if ok != (jerr == nil) {
		t.Fatalf("appendDomain ok=%v, json.Encoder err=%v for %+v", ok, jerr, d)
	}
	if !ok {
		return
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("render drift:\n got %s\nwant %s", got, want.Bytes())
	}
	if !checkDecode(t, got) {
		t.Fatalf("client decoder rejects the server's own body %s", got)
	}
}

func TestRenderDomainMatchesJSON(t *testing.T) {
	srv := wireServer(t)
	for _, d := range renderSeeds() {
		checkRender(t, srv, d)
	}
}

// FuzzRenderDomainMatchesJSON: for any domain the 200 body is byte-identical
// to the json.Encoder rendering — or both refuse it — and for any name the
// error bodies are byte-identical to the encoded ErrorResponse.
func FuzzRenderDomainMatchesJSON(f *testing.F) {
	f.Add("example.com", "com", uint64(42), uint8(0), 1000, int64(1520535600), int64(0), 0)
	f.Add("<b>&\u2028\xff.se", "s<e", uint64(1)<<63, uint8(200), 7, int64(-62135596800), int64(123456789), 19800)
	f.Add("UPPER.Com/x", "", uint64(0), uint8(3), 1001, int64(253402300800), int64(1), -86399)
	f.Add("", "É", uint64(9), uint8(4), 1000, int64(1), int64(999999999), 3600)
	srv := wireServer(f)
	f.Fuzz(func(t *testing.T, name, tld string, id uint64, status uint8, registrar int, sec, nsec int64, offset int) {
		ts := time.Unix(sec%4e11, nsec).In(time.FixedZone("", offset%(30*3600)))
		checkRender(t, srv, &model.Domain{
			ID: id, Name: name, TLD: model.TLD(tld), RegistrarID: registrar, Status: model.Status(status),
			Created: ts, Updated: ts.Add(time.Duration(nsec)), Expiry: ts.UTC(),
		})

		lower := strings.ToLower(name)
		want := ErrorResponse{ErrorCode: 404, Title: "object not found", Description: []string{fmt.Sprintf("domain %s is not registered", lower)}}
		if lower == "" || strings.Contains(lower, "/") {
			want = ErrorResponse{ErrorCode: 400, Title: "malformed domain name"}
		}
		rec := get(srv, http.MethodGet, "/domain/"+name)
		if rec.Code != want.ErrorCode || !bytes.Equal(rec.Body.Bytes(), encodeJSON(t, want)) {
			t.Fatalf("GET %q: status %d body %s, want %s", name, rec.Code, rec.Body.Bytes(), encodeJSON(t, want))
		}
		rec = get(srv, http.MethodPost, "/domain/"+name)
		want = ErrorResponse{ErrorCode: 405, Title: "method not allowed"}
		if rec.Code != 405 || !bytes.Equal(rec.Body.Bytes(), encodeJSON(t, want)) {
			t.Fatalf("POST %q: status %d body %s", name, rec.Code, rec.Body.Bytes())
		}
	})
}

// TestErrorBodiesMatchJSON covers the error answers that need store state:
// the injected registrar failure and the render a timestamp makes
// impossible. The latter used to be cached and served as an empty 200.
func TestErrorBodiesMatchJSON(t *testing.T) {
	srv := wireServer(t)
	at := time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC)
	if _, err := srv.store.SeedAt("broken.com", 1001, at, at, at, model.StatusActive, simtime.Day{}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.store.SeedAt("year10k.com", 1000, at, at, time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC), model.StatusActive, simtime.Day{}); err != nil {
		t.Fatal(err)
	}
	for name, code := range map[string]int{"broken.com": 503, "year10k.com": 500} {
		for pass := 0; pass < 2; pass++ { // the second GET would be the cache hit
			rec := get(srv, http.MethodGet, "/domain/"+name)
			want := encodeJSON(t, ErrorResponse{ErrorCode: code, Title: "internal error"})
			if rec.Code != code || !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("%s: status %d body %q, want %d %s", name, rec.Code, rec.Body.Bytes(), code, want)
			}
			if rec.Header().Get("ETag") != "" {
				t.Fatalf("%s: error response carries an ETag", name)
			}
		}
	}
	client, err := NewClient("http://rdap.test", inproc.Client(srv.Handler()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Domain(context.Background(), "year10k.com"); !errors.Is(err, ErrServer) {
		t.Fatalf("unrenderable domain = %v, want ErrServer", err)
	}
	if m := srv.Metrics(); m.Cache.Hits != 0 {
		t.Fatalf("an error response was cached: %+v", m)
	}
}

// TestNon200KeepsConnection: a lookup that ends in 404 — the pipeline's
// normal answer at T+8 w — or in an injected 5xx must hand its connection
// back for reuse instead of costing a TCP handshake each.
func TestNon200KeepsConnection(t *testing.T) {
	srv := wireServer(t)
	at := time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC)
	if _, err := srv.store.SeedAt("broken.com", 1001, at, at, at, model.StatusActive, simtime.Day{}); err != nil {
		t.Fatal(err)
	}
	var opened atomic.Int64
	ts := httptest.NewUnstartedServer(srv.Handler())
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			opened.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()

	lookups := func(workers, each int) int64 {
		// Capped at one connection per worker: uncapped, net/http dials
		// ahead while a start-up request waits, and those extra dials are
		// not the failure this test is after.
		tr := &http.Transport{MaxIdleConnsPerHost: workers, MaxConnsPerHost: workers}
		defer tr.CloseIdleConnections()
		client, err := NewClient(ts.URL, &http.Client{Transport: tr})
		if err != nil {
			t.Fatal(err)
		}
		before := opened.Load()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < each; i++ {
					name := "missing.com"
					want := ErrNotFound
					if i%4 == 3 {
						name, want = "broken.com", ErrServer
					}
					if _, err := client.Domain(context.Background(), name); !errors.Is(err, want) {
						t.Errorf("%s = %v, want %v", name, err, want)
						return
					}
				}
			}()
		}
		wg.Wait()
		return opened.Load() - before
	}
	if n := lookups(1, 100); n != 1 {
		t.Errorf("100 sequential non-200 lookups opened %d connections, want 1", n)
	}
	if n := lookups(4, 50); n > 4 {
		t.Errorf("4 workers opened %d connections, want at most 4", n)
	}
}

// lookupEnv is a client over the in-process transport and names registered
// under two sponsors, the shape of the study's lookup path.
func lookupEnv(tb testing.TB, names int) (*Server, *Client, []string) {
	tb.Helper()
	srv := wireServer(tb)
	created := make([]string, names)
	for i := range created {
		created[i] = fmt.Sprintf("lookup%05d.com", i)
		if _, err := srv.store.Create(created[i], 1000, 1); err != nil {
			tb.Fatal(err)
		}
	}
	client, err := NewClient("http://rdap.internal", inproc.Client(srv.Handler()))
	if err != nil {
		tb.Fatal(err)
	}
	return srv, client, created
}

var lookupSink *DomainResponse

// BenchmarkRDAPLookup is one lookup as the study makes it — client, inproc
// transport, handler, decode — against a cold cache entry, a warm one, and
// an unregistered name.
func BenchmarkRDAPLookup(b *testing.B) {
	srv, client, names := lookupEnv(b, 50000)
	ctx := context.Background()
	lookup := func(b *testing.B, name string) {
		dr, err := client.Domain(ctx, name)
		if err != nil {
			b.Fatal(err)
		}
		lookupSink = dr
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%len(names) == 0 {
				// Every name has been rendered: a mutation flushes the cache.
				b.StopTimer()
				if err := srv.store.Touch(names[0], 1000); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			lookup(b, names[i%len(names)])
		}
	})
	b.Run("warm", func(b *testing.B) {
		lookup(b, names[0])
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lookup(b, names[0])
		}
	})
	b.Run("notfound", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := client.Domain(ctx, "missing.com"); !errors.Is(err, ErrNotFound) {
				b.Fatal(err)
			}
		}
	})
}

// TestLookupAllocBudget bounds the allocations of one in-process lookup.
// The reflection path (encoding/json both ways, httptest recorder) took 105
// cold, 85 warm and 40 for a 404.
func TestLookupAllocBudget(t *testing.T) {
	_, client, names := lookupEnv(t, 300)
	ctx := context.Background()
	next := 0
	cold := testing.AllocsPerRun(200, func() {
		if _, err := client.Domain(ctx, names[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	warm := testing.AllocsPerRun(200, func() {
		if _, err := client.Domain(ctx, names[0]); err != nil {
			t.Fatal(err)
		}
	})
	notFound := testing.AllocsPerRun(200, func() {
		if _, err := client.Domain(ctx, "missing.com"); !errors.Is(err, ErrNotFound) {
			t.Fatal(err)
		}
	})
	t.Logf("allocs per lookup: cold %.0f, warm %.0f, not found %.0f", cold, warm, notFound)
	if cold > 70 || warm > 56 || notFound > 36 {
		t.Errorf("allocs per lookup: cold %.0f (budget 70), warm %.0f (56), not found %.0f (36)", cold, warm, notFound)
	}
}
