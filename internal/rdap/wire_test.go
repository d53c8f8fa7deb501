package rdap

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dropzero/internal/inproc"
	"dropzero/internal/model"
	"dropzero/internal/names"
	"dropzero/internal/registrars"
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
	// What Registration reads, in the shapes that are not the server's: a
	// repeated events or entities field, a second registrar entity, a handle
	// that is no number, the registrar role after a bad handle.
	registrationBody(`"7_DOMAIN_COM-VRSN"`, `[`+event("registration", 1)+`,`+event("last changed", 2)+`,`+event("expiration", 3)+`]`, `[`+entity("1000", "registrar")+`]`),
	registrationBody(`"7_DOMAIN_COM-VRSN"`, `[`+event("registration", 1)+`,`+event("registration", 2)+`]`, `[]`) + ` `,
	`{"events":[` + event("expiration", 1) + `],` + registrationBody(`"8"`, `[`+event("registration", 2)+`,`+event("last changed", 3)+`]`, `[`+entity("1000", "registrar")+`]`)[1:],
	`{"entities":[` + entity("5", "registrar") + `],` + registrationBody(`"8_X"`, `[`+event("registration", 2)+`,`+event("last changed", 3)+`,`+event("expiration", 4)+`]`, `[`+entity("1000", "registrar")+`]`)[1:],
	registrationBody(`"9_D"`, `[`+event("expiration", 1)+`,`+event("last changed", 2)+`,`+event("registration", 3)+`,`+event("expiration", 4)+`]`, `[`+entity("12", "reseller")+`,`+entity("34", "technical", "registrar")+`,`+entity("56", "registrar")+`]`),
	registrationBody(`"9_D"`, `[`+event("registration", 1)+`,`+event("last changed", 2)+`,`+event("expiration", 3)+`]`, `[`+entity("abc", "registrar")+`,`+entity("56", "registrar")+`]`),
	registrationBody(`"nine_D"`, `[`+event("registration", 1)+`,`+event("last changed", 2)+`,`+event("expiration", 3)+`]`, `[`+entity("56", "registrar")+`]`),
	registrationBody(`"9","handle":"10_D"`, `[`+event("registration", 1)+`,`+event("last changed", 2)+`,`+event("expiration", 3)+`]`, `[{"roles":["registrar"],"roles":["x"],"handle":"1","handle":"2"},{"roles":["registrar"],"handle":"+3"}]`),
	registrationBody(`"9"`, `[{"eventDate":"2018-01-01T00:00:00Z","eventAction":"x","eventAction":"registration"},`+event("last changed", 2)+`,`+event("expiration", 3)+`]`, `[{"handle":"1","roles":["registrar"],"publicIds":[{"type":"t","identifier":"i"}],"vcard":{"fn":"n"}}]`),
	registrationBody(`"9"`, `[`+event("registration", 1)+`,`+event("last changed", 2)+`,`+event("expiration", 3)+`]`, `[{"handle":"1","roles":["registrar"],"publicIds":[{"type":5}]}]`),
	registrationBody(`"9"`, `[`+event("registration", 1)+`,`+event("last changed", 2)+`,`+event("expiration", 3)+`]`, `[{"handle":"1","roles":["registrar"],"vcard":{"fn":null}}]`),
	registrationBody(`"9"`, `[`+event("registration", 1)+`,`+event("last changed", 2)+`,{"eventAction":"expiration"}]`, `[{"handle":"1","roles":["registrar"]}]`),
	registrationBody(`"9"`, `[`+event("registration", 1)+`,`+event("last changed", 2)+`,`+event("expiration", 3)+`]`, `[{"Handle":"1","roles":["registrar"]}]`),
}

// registrationBody, event and entity spell out a domain object field by
// field, for corpus bodies that differ from the server's rendering.
func registrationBody(handle, events, entities string) string {
	return `{"objectClassName":"domain","handle":` + handle + `,"ldhName":"a.com","status":["active"],"events":` + events + `,"entities":` + entities + `}`
}

func event(action string, day int) string {
	return fmt.Sprintf(`{"eventAction":%q,"eventDate":"2018-01-%02dT00:00:00Z"}`, action, day)
}

func entity(handle string, roles ...string) string {
	return fmt.Sprintf(`{"objectClassName":"entity","handle":%q,"roles":["%s"]}`, handle, strings.Join(roles, `","`))
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
		f.Add(srv.appendDomain(nil, d))
	}
	for _, body := range decodeCorpus {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkDecode(t, body) })
}

// bodyClient is an HTTP client of a service that answers every request with
// 200 and body.
func bodyClient(tb testing.TB, body []byte) *Client {
	tb.Helper()
	c, err := NewClient("http://rdap.test", inproc.Client(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write(body)
	})))
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// isStored reports whether reg holds the five fields of d's registration.
func isStored(reg model.PriorRegistration, d *model.Domain) bool {
	return reg.ID == d.ID && reg.RegistrarID == d.RegistrarID && reg.Created.Equal(d.Created) && reg.Updated.Equal(d.Updated) && reg.Expiry.Equal(d.Expiry)
}

// checkRegistration holds an HTTP Client.Registration over a service that
// answers 200 with body to its reference on that body: the full decode
// followed by DomainResponse.Registration, value or kind of error alike.
func checkRegistration(t *testing.T, body []byte) (reg model.PriorRegistration, accepted bool) {
	t.Helper()
	body = body[:min(len(body), maxBody)] // what the client reads of it
	got, gotErr := bodyClient(t, body).Registration(context.Background(), "a.com")
	var dr DomainResponse
	want, wantErr := model.PriorRegistration{}, decodeDomainResponse(body, &dr)
	if wantErr == nil {
		want, wantErr = dr.Registration()
	}
	if (gotErr == nil) != (wantErr == nil) || errors.Is(gotErr, ErrMalformed) != errors.Is(wantErr, ErrMalformed) {
		t.Fatalf("Registration error %v, reference error %v on %q", gotErr, wantErr, body)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("registration drift on %q:\n got %+v\nwant %+v", body, got, want)
	}
	return got, gotErr == nil
}

func TestRegistrationMatchesDomain(t *testing.T) {
	srv := wireServer(t)
	for _, d := range renderSeeds() {
		body := srv.appendDomain(nil, d)
		if reg, ok := checkRegistration(t, body); !ok || !isStored(reg, d) {
			t.Fatalf("Registration = %+v on the canonical body %s", reg, body)
		}
	}
	accepted := 0
	for _, body := range decodeCorpus {
		if _, ok := checkRegistration(t, []byte(body)); ok {
			accepted++
		}
	}
	if accepted < 6 {
		t.Fatalf("only %d of %d corpus bodies yield a registration", accepted, len(decodeCorpus))
	}
	for body, wantMalformed := range map[string]bool{
		`null`: true, `{}`: true, `{"handle":"x"}`: true, `{"handle":5}`: false, `{"handle":"1"} x`: false,
		registrationBody(`"9"`, `[`+event("registration", 1)+`]`, `[`+entity("1", "registrar")+`]`):                                                        true,
		registrationBody(`"9"`, `[`+event("registration", 1)+`,`+event("last changed", 2)+`,`+event("expiration", 3)+`]`, `[`+entity("1", "reseller")+`]`): true,
	} {
		if _, err := bodyClient(t, []byte(body)).Registration(context.Background(), "a.com"); err == nil || errors.Is(err, ErrMalformed) != wantMalformed {
			t.Errorf("Registration of %.60q = %v, want ErrMalformed %v", body, err, wantMalformed)
		}
	}
}

// FuzzRegistrationMatchesDomain: on arbitrary bytes an HTTP Registration
// never panics and agrees with the full decoder.
func FuzzRegistrationMatchesDomain(f *testing.F) {
	srv := wireServer(f)
	for _, d := range renderSeeds() {
		f.Add(srv.appendDomain(nil, d))
	}
	for _, body := range decodeCorpus {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkRegistration(t, body) })
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
// toResponse, and the client decoder to what it emits. A timestamp
// encoding/json refuses is one no Store holds; there is nothing to compare.
func checkRender(t *testing.T, srv *Server, d *model.Domain) {
	t.Helper()
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(srv.toResponse(d)); err != nil {
		return
	}
	got := srv.appendDomain(nil, d)
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

// FuzzRenderDomainMatchesJSON: for any domain encoding/json renders, the 200
// body is byte-identical to the json.Encoder rendering, and for any name the
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

// TestErrorBodiesMatchJSON covers the error answer that needs store state,
// the injected registrar failure, and holds the store to refusing the
// timestamp no rendering exists for (its instants end in 2106) — which once
// was cached and served as an empty 200.
func TestErrorBodiesMatchJSON(t *testing.T) {
	srv := wireServer(t)
	at := time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC)
	if _, err := srv.store.SeedAt("broken.com", 1001, at, at, at, model.StatusActive, simtime.Day{}); err != nil {
		t.Fatal(err)
	}
	year10k := time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)
	if d, err := srv.store.SeedAt("year10k.com", 1000, at, at, year10k, model.StatusActive, simtime.Day{}); err == nil {
		t.Fatalf("the store holds a year-10000 expiry: %+v", d)
	}
	for pass := 0; pass < 2; pass++ { // the second GET would be the cache hit
		rec := get(srv, http.MethodGet, "/domain/broken.com")
		want := encodeJSON(t, ErrorResponse{ErrorCode: 503, Title: "internal error"})
		if rec.Code != 503 || !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("status %d body %q, want 503 %s", rec.Code, rec.Body.Bytes(), want)
		}
		if rec.Header().Get("ETag") != "" {
			t.Fatal("error response carries an ETag")
		}
	}
	client := inprocClient(t, srv.Handler())
	if _, err := client.Domain(context.Background(), "broken.com"); !errors.Is(err, ErrServer) {
		t.Fatalf("failing registrar's domain = %v, want ErrServer", err)
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

// lookupEnv is a server over names registered under one sponsor, with the
// two clients a lookup can go through: HTTP over the in-process transport
// and bound to the server, the study's.
func lookupEnv(tb testing.TB, names int) (srv *Server, httpc, bound *Client, created []string) {
	tb.Helper()
	srv = wireServer(tb)
	created = make([]string, names)
	for i := range created {
		created[i] = fmt.Sprintf("lookup%05d.com", i)
		if _, err := srv.store.Create(created[i], 1000, 1); err != nil {
			tb.Fatal(err)
		}
	}
	httpc, err := NewClient("http://rdap.internal", inproc.Client(srv.Handler()))
	if err != nil {
		tb.Fatal(err)
	}
	return srv, httpc, NewBoundClient(srv), created
}

// TestBoundClientMatchesHTTP: the bound client and an HTTP client over the
// same server give the same answer to every kind of lookup, and the server
// counts them the same. A bound lookup leaves the response cache alone: its
// hits, misses and Len do not move.
func TestBoundClientMatchesHTTP(t *testing.T) {
	srv, httpc, bound, names := lookupEnv(t, 3)
	at := time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC)
	if _, err := srv.store.SeedAt("broken.com", 1001, at, at, at, model.StatusActive, simtime.Day{}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	class := func(err error) error {
		for _, c := range []error{ErrNotFound, ErrServer, ErrMalformed} {
			if errors.Is(err, c) {
				return c
			}
		}
		return nil
	}
	for _, name := range []string{names[0], names[0], strings.ToUpper(names[1]), "missing.com", "broken.com", "a/b.com", ""} {
		type outcome struct {
			reg      model.PriorRegistration
			regErr   error
			dr       *DomainResponse
			drErr    error
			requests uint64
			cached   bool // the cache's counters or Len moved
		}
		// A new generation each time: the HTTP client must not find an
		// earlier lookup's render cached.
		lookup := func(c *Client) outcome {
			if err := srv.store.Touch(names[2], 1000); err != nil {
				t.Fatal(err)
			}
			before, beforeLen := srv.Metrics(), srv.cache.Len()
			var o outcome
			o.dr, o.drErr = c.Domain(ctx, name)
			o.reg, o.regErr = c.Registration(ctx, name)
			after := srv.Metrics()
			o.requests = after.Requests - before.Requests
			o.cached = after.Cache != before.Cache || srv.cache.Len() != beforeLen
			return o
		}
		h, b := lookup(httpc), lookup(bound)
		if (h.drErr == nil) != (b.drErr == nil) || class(h.drErr) != class(b.drErr) || class(h.regErr) != class(b.regErr) || (h.regErr == nil) != (b.regErr == nil) {
			t.Errorf("%q: HTTP errors (%v, %v), bound errors (%v, %v)", name, h.drErr, h.regErr, b.drErr, b.regErr)
		}
		if !reflect.DeepEqual(h.dr, b.dr) || h.reg != b.reg {
			t.Errorf("%q: HTTP (%+v, %+v), bound (%+v, %+v)", name, h.dr, h.reg, b.dr, b.reg)
		}
		if h.requests != 2 || b.requests != 2 || b.cached {
			t.Errorf("%q: HTTP %d requests, bound %d requests (cache touched: %v)", name, h.requests, b.requests, b.cached)
		}
		if h.drErr == nil {
			if want, err := h.dr.Registration(); err != nil || want != b.reg {
				t.Errorf("%q: Registration %+v, Domain().Registration() %+v, %v", name, b.reg, want, err)
			}
		}
	}
	for _, name := range []string{"missing.com", "a/b.com"} {
		if _, err := bound.Registration(ctx, name); (name == "missing.com") != errors.Is(err, ErrNotFound) || err == nil {
			t.Errorf("bound %q = %v", name, err)
		}
	}
	if _, err := bound.Registration(ctx, "broken.com"); !errors.Is(err, ErrServer) {
		t.Errorf("bound lookup of a failing registrar's name = %v, want ErrServer", err)
	}

	// A cancelled context fails a lookup on either transport before it
	// reaches the server. A bound lookup has no transport to notice it, so it
	// checks.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	for transport, c := range map[string]*Client{"HTTP": httpc, "bound": bound} {
		before := srv.Metrics().Requests
		if _, err := c.Registration(cancelled, names[0]); !errors.Is(err, context.Canceled) {
			t.Errorf("%s Registration under a cancelled context = %v", transport, err)
		}
		if _, err := c.Domain(cancelled, names[0]); !errors.Is(err, context.Canceled) {
			t.Errorf("%s Domain under a cancelled context = %v", transport, err)
		}
		if got := srv.Metrics().Requests; got != before {
			t.Errorf("cancelled %s lookups reached the server: %d requests", transport, got-before)
		}
	}
}

var (
	lookupSink *DomainResponse
	regSink    model.PriorRegistration
)

// BenchmarkRDAPLookup is one lookup — client, transport, resolve, decode —
// against a cold cache entry, a warm one, and an unregistered name: Domain
// over HTTP through the in-process transport, as read_mix and the examples
// look names up, and bound/ Registration, as the study does. A bound lookup
// never reads the cache, so its cold and warm legs differ only in the name.
func BenchmarkRDAPLookup(b *testing.B) {
	srv, httpc, bound, names := lookupEnv(b, 50000)
	ctx := context.Background()
	domain := func(name string) (err error) { lookupSink, err = httpc.Domain(ctx, name); return err }
	registration := func(name string) (err error) { regSink, err = bound.Registration(ctx, name); return err }
	for _, tr := range []struct {
		prefix string
		lookup func(name string) error
	}{{"", domain}, {"bound/", registration}} {
		b.Run(tr.prefix+"cold", func(b *testing.B) {
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
				if err := tr.lookup(names[i%len(names)]); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(tr.prefix+"warm", func(b *testing.B) {
			if err := tr.lookup(names[0]); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := tr.lookup(names[0]); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(tr.prefix+"notfound", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := tr.lookup("missing.com"); !errors.Is(err, ErrNotFound) {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestLookupAllocBudget bounds the allocations of one in-process lookup on
// each transport. The reflection path (encoding/json both ways, httptest
// recorder) took 105 cold, 85 warm and 40 for a 404; HTTP before the bound
// client 64, 53 and 28; the bound client through the response cache 11, 0
// and 4. A bound Registration of a registered name allocates nothing, cold
// or warm: it copies five fields of the stored registration, and no body is
// rendered or read. Its 404 costs the one error value. The budgets hold
// under the race detector, which is how CI runs the test: there sync.Pool
// drops a quarter of what is put back, worth up to three allocations on the
// HTTP path; the bound one uses no pool.
func TestLookupAllocBudget(t *testing.T) {
	_, httpc, bound, names := lookupEnv(t, 600)
	ctx := context.Background()
	next := 0
	for _, tc := range []struct {
		name                 string
		lookup               func(name string) error
		cold, warm, notFound float64
	}{
		{"HTTP Domain", func(name string) error { _, err := httpc.Domain(ctx, name); return err }, 54, 42, 28},
		{"bound Registration", func(name string) error { _, err := bound.Registration(ctx, name); return err }, 0, 0, 1},
	} {
		cold := testing.AllocsPerRun(200, func() {
			if err := tc.lookup(names[next]); err != nil {
				t.Fatal(err)
			}
			next++
		})
		warm := testing.AllocsPerRun(200, func() {
			if err := tc.lookup(names[0]); err != nil {
				t.Fatal(err)
			}
		})
		notFound := testing.AllocsPerRun(200, func() {
			if err := tc.lookup("missing.com"); !errors.Is(err, ErrNotFound) {
				t.Fatal(err)
			}
		})
		t.Logf("%s, allocs per lookup: cold %.0f, warm %.0f, not found %.0f", tc.name, cold, warm, notFound)
		if cold > tc.cold || warm > tc.warm || notFound > tc.notFound {
			t.Errorf("%s, allocs per lookup: cold %.0f (budget %.0f), warm %.0f (%.0f), not found %.0f (%.0f)",
				tc.name, cold, tc.cold, warm, tc.warm, notFound, tc.notFound)
		}
	}
}

// TestStudyLookupsMatchAcrossTransports: every shape of answer a study's
// lookups meet — each storable status under each accreditation of the
// simulator's directory (real contact data: the sponsors the seeder and the
// market put names under; a store holds no name under a sponsor it has no
// record of) — reads as the stored registration through the bound client,
// which reads no body, and through the HTTP one. So does the same object
// with two keys the other way round.
func TestStudyLookupsMatchAcrossTransports(t *testing.T) {
	day := simtime.Day{Year: 2018, Month: time.January, Dom: 10}
	store := registry.NewStore(simtime.NewSimClock(day.At(9, 0, 0)))
	rng := rand.New(rand.NewSource(7))
	dir := registrars.BuildDirectory(rng)
	var sponsors []int
	for _, r := range dir.Registrars() {
		store.AddRegistrar(r)
		sponsors = append(sponsors, r.IANAID)
	}
	gen := names.NewGenerator(rng)
	var want []*model.Domain
	for i, sponsor := range sponsors {
		for _, status := range []model.Status{model.StatusActive, model.StatusAutoRenew, model.StatusRedemption, model.StatusPendingDelete} {
			due := simtime.Day{}
			if status == model.StatusPendingDelete {
				due = day.AddDays(i % 5)
			}
			updated := day.AddDays(-35).At(6, 30, i%60)
			name := gen.Next().Label + "." + string([]model.TLD{model.COM, model.NET}[i%2])
			d, err := store.SeedAt(name, sponsor, updated.AddDate(-1-i%15, 0, 0), updated, updated.AddDate(0, 0, -30), status, due)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, &d)
		}
	}
	srv := NewServer(store, ServerConfig{})
	overHTTP := inprocClient(t, srv.Handler())
	body := srv.appendDomain(nil, want[0])
	handle, rest, _ := bytes.Cut(bytes.TrimPrefix(body, []byte(`{"objectClassName":"domain",`)), []byte(`,`))
	swapped := slices.Concat([]byte(`{`), handle, []byte(`,"objectClassName":"domain",`), rest)
	if len(swapped) != len(body) || !bytes.HasPrefix(handle, []byte(`"handle":`)) {
		t.Fatalf("no keys swapped in %s", body)
	}
	for _, c := range []struct {
		transport string
		client    *Client
		want      []*model.Domain
	}{{"bound", NewBoundClient(srv), want}, {"http", overHTTP, want}, {"reordered keys", bodyClient(t, swapped), want[:1]}} {
		for _, d := range c.want {
			reg, err := c.client.Registration(context.Background(), d.Name)
			if err != nil {
				t.Fatalf("%s: %s: %v", c.transport, d.Name, err)
			}
			if !isStored(reg, d) {
				t.Fatalf("%s: %s read as %+v, stored %+v", c.transport, d.Name, reg, d)
			}
		}
	}
}
