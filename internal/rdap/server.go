package rdap

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"unicode/utf8"

	"dropzero/internal/gencache"
	"dropzero/internal/jsonwire"
	"dropzero/internal/model"
	"dropzero/internal/registry"
	"dropzero/internal/serve"
)

// cacheSize bounds the response cache. Sized for the hot set of a bulk
// measurement sweep, not the whole zone: the cache flushes wholesale on
// every store mutation anyway.
const cacheSize = 32768

// ServerConfig parameterises an RDAP server.
type ServerConfig struct {
	// FailRegistrars maps registrar IANA IDs to the HTTP status the server
	// returns for any domain they sponsor. Used to reproduce the Papaki-like
	// failures that force clients onto the WHOIS fallback.
	FailRegistrars map[int]int
}

// rdapMediaType is the header value of every Content-Type the server sets
// and every Accept the client sends, shared so neither allocates it.
var rdapMediaType = []string{"application/rdap+json"}

// bodyBufs recycles the buffers (1 KiB fresh: a body is ≈ 700 bytes) the
// server renders a body into and the HTTP client reads one into, across
// servers and clients. Package-level on purpose: the runtime keeps a pointer
// to every sync.Pool that has been used until a later collection, and a pool
// inside Server would pin a closed server — and through it the store and the
// response cache — for a GC cycle after its last request.
var bodyBufs = sync.Pool{New: func() any { b := make([]byte, 0, 1<<10); return &b }}

// Server serves registry data as RFC 7483-shaped JSON, over HTTP and to
// clients bound to it in-process (NewBoundClient). HTTP domain responses are
// cached per store generation (see registry.Store.Generation): any mutation
// flushes the cache, so cached bytes are always identical to a fresh render
// — a property the tests pin differentially.
type Server struct {
	*serve.HTTP // Handler, Listen, ServeErr and Close

	store    *registry.Store
	cfg      ServerConfig
	requests atomic.Uint64

	cache *gencache.Cache[string, *serve.Body]

	// entities memoizes the marshalled registrar entity fragment per
	// accreditation record. Keyed by the record value, not the IANA ID, so
	// re-accrediting an ID with different contact data can never serve the
	// old fragment. Registrar sets are small (thousands), so unbounded.
	entMu    sync.RWMutex
	entities map[model.Registrar]json.RawMessage
}

// NewServer returns a Server over store with every currently accredited
// registrar's entity fragment precomputed.
func NewServer(store *registry.Store, cfg ServerConfig) *Server {
	s := &Server{
		store:    store,
		cfg:      cfg,
		cache:    gencache.New[string, *serve.Body](cacheSize),
		entities: make(map[model.Registrar]json.RawMessage),
	}
	for _, reg := range store.Registrars() {
		s.entities[reg] = marshalEntity(registrarEntity(reg.IANAID, reg, true))
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/domain/", s.handleDomain)
	mux.HandleFunc("/help", s.handleHelp)
	s.HTTP = serve.NewHTTP("rdap", mux)
	return s
}

// Metrics is a snapshot of the server's request accounting.
type Metrics struct {
	Requests uint64
	Cache    gencache.Counters
}

// Metrics returns request and cache counters accumulated since construction.
func (s *Server) Metrics() Metrics {
	return Metrics{Requests: s.requests.Load(), Cache: s.cache.Stats()}
}

func (s *Server) handleHelp(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/rdap+json")
	_ = json.NewEncoder(w).Encode(map[string]any{
		"rdapConformance": []string{"rdap_level_0"},
		"notices": []map[string]any{{
			"title":       "dropzero registry RDAP pilot",
			"description": []string{"lookups: GET /domain/{name}"},
		}},
	})
}

// writeError answers status with the RFC 7483 error body — byte-identical to
// json.NewEncoder(w).Encode(ErrorResponse{status, title, description}). The
// description is given in the parts of one string, so the 404 needs no
// formatted copy of the name.
func writeError(w http.ResponseWriter, status int, title string, description ...string) {
	bp := bodyBufs.Get().(*[]byte)
	b := append((*bp)[:0], `{"errorCode":`...)
	b = strconv.AppendInt(b, int64(status), 10)
	b = append(b, `,"title":`...)
	b = jsonwire.AppendString(b, title)
	if len(description) > 0 {
		b = append(b, `,"description":["`...)
		for _, part := range description {
			b = jsonwire.AppendEscaped(b, part)
		}
		b = append(b, `"]`...)
	}
	b = append(b, "}\n"...)
	w.Header()["Content-Type"] = rdapMediaType
	w.WriteHeader(status)
	_, _ = w.Write(b)
	*bp = b
	bodyBufs.Put(bp)
}

// find is the lookup both transports share: count the request, lower-case
// and check the name, read the store, apply an injected registrar failure.
// It returns the registration with 200, or the status of the error.
func (s *Server) find(name string) (model.Domain, int) {
	s.requests.Add(1)
	name = strings.ToLower(name)
	if name == "" || strings.Contains(name, "/") {
		return model.Domain{}, http.StatusBadRequest
	}
	d, found := s.store.Lookup(name)
	if !found {
		return d, http.StatusNotFound
	}
	if code, broken := s.cfg.FailRegistrars[d.RegistrarID]; broken {
		return d, code
	}
	return d, http.StatusOK
}

// resolve is the HTTP handler's lookup: find, then the generation-checked
// cache, render and install. Errors are never cached and carry no ETag: a
// name can be re-created at any moment and a conditional revalidation of
// "absent" would risk a stale 304 after the re-registration.
func (s *Server) resolve(name string) (*serve.Body, int) {
	gen := s.store.Generation()
	d, status := s.find(name)
	if status != http.StatusOK {
		return nil, status
	}
	if cr, hit := s.cache.Get(gen, d.Name); hit {
		return cr, status
	}

	bp := bodyBufs.Get().(*[]byte)
	body := s.appendDomain((*bp)[:0], &d)
	*bp = body
	defer bodyBufs.Put(bp)
	if s.store.Generation() != gen {
		// A mutation landed mid-render: the body is a valid snapshot of no
		// generation it could name, so a later revalidation must not match it.
		cr := serve.NewBody(bytes.Clone(body), "")
		return &cr, status
	}
	cr := serve.NewBody(bytes.Clone(body), `"`+strconv.FormatUint(gen, 10)+`"`)
	s.cache.Put(gen, d.Name, &cr)
	return &cr, status
}

// render is find and appendDomain without the cache, for the bound client's
// Domain: a found name's body goes to decode in a pooled buffer it must not
// keep.
func (s *Server) render(name string, decode func(body []byte) error) (status int, err error) {
	d, status := s.find(name)
	if status != http.StatusOK {
		return status, nil
	}
	bp := bodyBufs.Get().(*[]byte)
	defer bodyBufs.Put(bp)
	*bp = s.appendDomain((*bp)[:0], &d)
	return status, decode(*bp)
}

// handleDomain is the HTTP adapter over resolve: method and path in,
// headers, conditional 304 and body out. HEAD gets the headers of GET, as
// RFC 7480 §4.1 lets clients ask.
func (s *Server) handleDomain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		s.requests.Add(1)
		w.Header().Set("Allow", "GET, HEAD")
		writeError(w, http.StatusMethodNotAllowed, "method not allowed")
		return
	}
	name := strings.TrimPrefix(r.URL.Path, "/domain/")
	switch cr, status := s.resolve(name); status {
	case http.StatusOK:
		_ = cr.Write(w, r, rdapMediaType) // a failed write is the client's to notice
	case http.StatusBadRequest:
		writeError(w, status, "malformed domain name")
	case http.StatusNotFound:
		writeError(w, status, "object not found", "domain ", strings.ToLower(name), " is not registered")
	default:
		writeError(w, status, "internal error")
	}
}

// appendDomain appends the domain response, byte-identical to
// json.NewEncoder(buf).Encode(toResponse(d)) with the memoized registrar
// entity fragment spliced in: the fragment is json.Marshal output, which
// encoding/json would re-emit unchanged. Every timestamp a Store holds
// (1970 through 2106, UTC) renders; one time.Time.MarshalJSON rejects would
// leave its eventDate value out.
func (s *Server) appendDomain(dst []byte, d *model.Domain) []byte {
	dst = append(dst, `{"objectClassName":"domain","handle":"`...)
	dst = strconv.AppendUint(dst, d.ID, 10)
	dst = append(dst, "_DOMAIN_"...)
	dst = appendUpper(dst, string(d.TLD))
	dst = append(dst, `-VRSN","ldhName":`...)
	dst = jsonwire.AppendString(dst, d.Name)
	dst = append(dst, `,"status":[`...)
	dst = jsonwire.AppendString(dst, d.Status.String())
	dst = append(dst, `],"events":[`...)
	for i, ev := range [...]Event{
		{EventRegistration, d.Created},
		{EventLastChanged, d.Updated},
		{EventExpiration, d.Expiry},
	} {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"eventAction":`...)
		dst = jsonwire.AppendString(dst, ev.Action)
		dst = append(dst, `,"eventDate":`...)
		dst, _ = jsonwire.AppendTime(dst, ev.Date)
		dst = append(dst, '}')
	}
	dst = append(dst, `],"entities":[`...)
	dst = append(dst, s.entityFragment(d.RegistrarID)...)
	return append(dst, "]}\n"...)
}

// appendUpper is jsonwire.AppendEscaped(dst, strings.ToUpper(s)) without
// ToUpper's copy while s is printable ASCII with nothing to escape, as a TLD is.
func appendUpper(dst []byte, s string) []byte {
	start := len(dst)
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < ' ' || c >= utf8.RuneSelf || strings.IndexByte(`"\<>&`, c) >= 0 {
			return jsonwire.AppendEscaped(dst[:start], strings.ToUpper(s))
		}
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		dst = append(dst, c)
	}
	return dst
}

// entityFragment returns the marshalled entity block for a sponsoring
// registrar, memoized per accreditation record.
func (s *Server) entityFragment(registrarID int) json.RawMessage {
	reg, found := s.store.Registrar(registrarID)
	if found {
		s.entMu.RLock()
		frag, ok := s.entities[reg]
		s.entMu.RUnlock()
		if ok {
			return frag
		}
	}
	frag := marshalEntity(registrarEntity(registrarID, reg, found))
	if found {
		s.entMu.Lock()
		s.entities[reg] = frag
		s.entMu.Unlock()
	}
	return frag
}

func marshalEntity(ent Entity) json.RawMessage {
	b, err := json.Marshal(ent)
	if err != nil {
		panic(fmt.Sprintf("rdap: marshal entity: %v", err)) // no unmarshalable fields
	}
	return b
}

func registrarEntity(registrarID int, reg model.Registrar, found bool) Entity {
	ent := Entity{
		ObjectClassName: "entity",
		Handle:          strconv.Itoa(registrarID),
		Roles:           []string{"registrar"},
		PublicIDs:       []PublicID{{Type: "IANA Registrar ID", Identifier: strconv.Itoa(registrarID)}},
	}
	if found {
		ent.VCard = map[string]string{
			"fn":    reg.Name,
			"org":   reg.Contact.Org,
			"email": reg.Contact.Email,
			"adr":   reg.Contact.Street + ", " + reg.Contact.City + ", " + reg.Contact.Country,
			"tel":   reg.Contact.Phone,
		}
	}
	return ent
}

// ParseHandle extracts the numeric registry object ID from an RDAP handle
// like "1234_DOMAIN_COM-VRSN".
func ParseHandle(handle string) (uint64, error) {
	i := strings.IndexByte(handle, '_')
	if i < 0 {
		i = len(handle)
	}
	id, err := strconv.ParseUint(handle[:i], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("rdap: malformed handle %q: %w", handle, err)
	}
	return id, nil
}
