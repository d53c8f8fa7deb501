// Package whois implements the legacy port-43 lookup protocol: the client
// sends one domain name terminated by CRLF, the server answers with a
// key/value record and closes the connection. The measurement pipeline uses
// it as the fallback when RDAP lookups fail, mirroring the paper's data
// collection.
package whois

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dropzero/internal/gencache"
	"dropzero/internal/model"
	"dropzero/internal/registry"
	"dropzero/internal/serve"
)

// Record field labels, matching the labels Verisign's thin WHOIS emits.
const (
	FieldDomainName  = "Domain Name"
	FieldDomainID    = "Registry Domain ID"
	FieldRegistrarID = "Registrar IANA ID"
	FieldUpdated     = "Updated Date"
	FieldCreated     = "Creation Date"
	FieldExpiry      = "Registry Expiry Date"
	FieldStatus      = "Domain Status"
)

// noMatchPrefix starts the reply for unregistered names.
const noMatchPrefix = "No match for"

// ErrNoMatch is returned by Client.Lookup for unregistered names.
var ErrNoMatch = errors.New("whois: no match")

// timeLayout is the timestamp format on the wire (RFC 3339, UTC, seconds).
const timeLayout = "2006-01-02T15:04:05Z"

// Record is a parsed WHOIS response.
type Record struct {
	Fields map[string]string
}

// Domain reconstructs the registration metadata from a Record.
func (r *Record) Domain() (*model.Domain, error) {
	get := func(k string) (string, error) {
		v, ok := r.Fields[k]
		if !ok {
			return "", fmt.Errorf("whois: record missing %q", k)
		}
		return v, nil
	}
	name, err := get(FieldDomainName)
	if err != nil {
		return nil, err
	}
	idStr, err := get(FieldDomainID)
	if err != nil {
		return nil, err
	}
	id, err := strconv.ParseUint(strings.TrimSuffix(idStr, "_DOMAIN"), 10, 64)
	if err != nil {
		return nil, fmt.Errorf("whois: malformed domain ID %q: %w", idStr, err)
	}
	regStr, err := get(FieldRegistrarID)
	if err != nil {
		return nil, err
	}
	regID, err := strconv.Atoi(regStr)
	if err != nil {
		return nil, fmt.Errorf("whois: malformed registrar ID %q: %w", regStr, err)
	}
	parseT := func(k string) (time.Time, error) {
		v, err := get(k)
		if err != nil {
			return time.Time{}, err
		}
		t, err := time.Parse(timeLayout, v)
		if err != nil {
			return time.Time{}, fmt.Errorf("whois: malformed %s %q: %w", k, v, err)
		}
		return t, nil
	}
	created, err := parseT(FieldCreated)
	if err != nil {
		return nil, err
	}
	updated, err := parseT(FieldUpdated)
	if err != nil {
		return nil, err
	}
	expiry, err := parseT(FieldExpiry)
	if err != nil {
		return nil, err
	}
	statusStr, err := get(FieldStatus)
	if err != nil {
		return nil, err
	}
	status, err := model.ParseStatus(statusStr)
	if err != nil {
		return nil, err
	}
	name = strings.ToLower(name)
	tld, _ := model.TLDOf(name)
	return &model.Domain{
		ID:          id,
		Name:        name,
		TLD:         tld,
		RegistrarID: regID,
		Created:     created,
		Updated:     updated,
		Expiry:      expiry,
		Status:      status,
	}, nil
}

// recordTrailer ends every positive WHOIS response.
const recordTrailer = "\r\n>>> Last update of whois database <<<\r\n"

// Format renders a domain as a WHOIS response body. The emission order is
// the alphabetical order of the field labels — historically produced by
// sorting a map's keys per call, now written out directly. Changing a field
// label here requires re-deriving the order; the equivalence test pins the
// exact bytes against the old map-and-sort implementation.
func Format(d *model.Domain) string {
	var b strings.Builder
	b.Grow(256)
	writeField := func(k, v string) {
		b.WriteString("   ")
		b.WriteString(k)
		b.WriteString(": ")
		b.WriteString(v)
		b.WriteString("\r\n")
	}
	writeField(FieldCreated, d.Created.UTC().Format(timeLayout))
	writeField(FieldDomainName, strings.ToUpper(d.Name))
	writeField(FieldStatus, d.Status.String())
	writeField(FieldRegistrarID, strconv.Itoa(d.RegistrarID))
	writeField(FieldDomainID, strconv.FormatUint(d.ID, 10)+"_DOMAIN")
	writeField(FieldExpiry, d.Expiry.UTC().Format(timeLayout))
	writeField(FieldUpdated, d.Updated.UTC().Format(timeLayout))
	b.WriteString(recordTrailer)
	return b.String()
}

// Parse extracts a Record from a WHOIS response body. ErrNoMatch is returned
// for "No match" replies.
func Parse(body string) (*Record, error) {
	rec := &Record{Fields: make(map[string]string)}
	for _, line := range strings.Split(body, "\n") {
		line = strings.TrimRight(line, "\r")
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, noMatchPrefix) {
			return nil, ErrNoMatch
		}
		if trimmed == "" || strings.HasPrefix(trimmed, ">>>") {
			continue
		}
		k, v, ok := strings.Cut(trimmed, ": ")
		if !ok {
			continue
		}
		rec.Fields[strings.TrimSpace(k)] = strings.TrimSpace(v)
	}
	if len(rec.Fields) == 0 {
		return nil, fmt.Errorf("whois: empty record")
	}
	return rec, nil
}

// cacheSize bounds the formatted-response cache; it flushes wholesale on
// every store mutation, so it only ever holds one generation's hot set.
const cacheSize = 32768

// Server answers WHOIS queries from a registry store. Positive responses
// are cached per store generation (see registry.Store.Generation), so a
// repeat lookup of an unchanged domain serves preformatted bytes.
type Server struct {
	*serve.Conns // Listen, ServeErr and Close; ServeConn is the Server's own

	store    *registry.Store
	requests atomic.Uint64
	cache    *gencache.Cache[string, string]
}

// NewServer returns a WHOIS server over store.
func NewServer(store *registry.Store) *Server {
	s := &Server{store: store, cache: gencache.New[string, string](cacheSize)}
	s.Conns = serve.NewConns("whois", s.serveConn)
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

func (s *Server) serveConn(conn net.Conn) {
	conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	s.ServeConn(conn)
}

// ServeConn answers one WHOIS exchange on conn without closing it or
// managing deadlines. Exported so benchmarks and in-process callers can
// drive the full protocol over a net.Pipe, bypassing TCP.
func (s *Server) ServeConn(conn net.Conn) {
	s.requests.Add(1)
	line, err := bufio.NewReader(io.LimitReader(conn, 512)).ReadString('\n')
	if err != nil && line == "" {
		return
	}
	io.WriteString(conn, s.response(line))
}

// response returns the full reply body for one query line, serving the
// generation-checked cache on repeat lookups. Negative replies are never
// cached: a name can be re-registered the next instant.
func (s *Server) response(query string) string {
	name := strings.ToLower(strings.TrimSpace(query))
	gen := s.store.Generation()
	if body, ok := s.cache.Get(gen, name); ok {
		return body
	}
	d, err := s.store.Get(name)
	if err != nil {
		return fmt.Sprintf("%s domain %q.\r\n", noMatchPrefix, strings.ToUpper(name))
	}
	body := Format(d)
	if s.store.Generation() == gen {
		s.cache.Put(gen, name, body)
	}
	return body
}

// Client performs WHOIS lookups against one server address, or against a
// Server in the same process (NewBoundClient). It is safe for concurrent
// use: the measurement pipeline fans fallback lookups out over a worker pool.
//
// Port-43 WHOIS is a one-shot protocol — the server answers a single query
// and closes the connection — so connections cannot be *reused*. Instead the
// Client keeps up to PoolSize pre-dialed idle connections ready, refilling in
// the background after each lookup, so steady-state queries stop paying a
// dial round-trip on the critical path.
type Client struct {
	srv  *Server // set on a bound client, which ignores the fields below
	Addr string
	// PoolSize caps the pre-dialed idle connections kept for future lookups;
	// zero disables dial-ahead.
	PoolSize int

	mu     sync.Mutex
	idle   []net.Conn
	closed bool
}

// lookupTimeout bounds each lookup (dial + query + read) when the context
// carries no earlier deadline.
const lookupTimeout = 10 * time.Second

// NewBoundClient returns a Client that never dials: it parses what srv's
// response core (ServeConn's, cache included) answers, as a TCP client would.
func NewBoundClient(srv *Server) *Client { return &Client{srv: srv} }

// Lookup queries the server for name. It is the context-free compatibility
// wrapper around LookupContext.
func (c *Client) Lookup(name string) (*model.Domain, error) {
	return c.LookupContext(context.Background(), name)
}

// LookupContext queries the server for name. The context bounds dialing and
// the read of the response; a hung server fails the lookup instead of
// stalling the caller.
func (c *Client) LookupContext(ctx context.Context, name string) (*model.Domain, error) {
	if c.srv != nil {
		if err := ctx.Err(); err != nil { // no transport to notice it
			return nil, err
		}
		c.srv.requests.Add(1)
		return parseDomain(c.srv.response(name))
	}
	deadline := time.Now().Add(lookupTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	conn, pooled := c.takeIdle()
	if conn == nil {
		var err error
		conn, err = c.dial(ctx, deadline)
		if err != nil {
			return nil, err
		}
	}
	d, err := query(conn, name, deadline)
	if err != nil && pooled && ctx.Err() == nil {
		// A pre-dialed connection can have gone stale (server-side idle
		// timeout); retry exactly once on a fresh dial.
		if conn, derr := c.dial(ctx, deadline); derr == nil {
			d, err = query(conn, name, deadline)
		}
	}
	if err != nil {
		return nil, err
	}
	c.refill()
	return d, nil
}

// query runs one request/response exchange and always closes conn.
func query(conn net.Conn, name string, deadline time.Time) (*model.Domain, error) {
	defer conn.Close()
	conn.SetDeadline(deadline)
	if _, err := fmt.Fprintf(conn, "%s\r\n", name); err != nil {
		return nil, fmt.Errorf("whois: send query: %w", err)
	}
	body, err := io.ReadAll(io.LimitReader(conn, 1<<20))
	if err != nil {
		return nil, fmt.Errorf("whois: read response: %w", err)
	}
	return parseDomain(string(body))
}

// parseDomain reads the registration out of a reply body.
func parseDomain(body string) (*model.Domain, error) {
	rec, err := Parse(body)
	if err != nil {
		return nil, err
	}
	return rec.Domain()
}

func (c *Client) dial(ctx context.Context, deadline time.Time) (net.Conn, error) {
	var d net.Dialer
	d.Deadline = deadline
	conn, err := d.DialContext(ctx, "tcp", c.Addr)
	if err != nil {
		return nil, fmt.Errorf("whois: dial %s: %w", c.Addr, err)
	}
	return conn, nil
}

func (c *Client) takeIdle() (net.Conn, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := len(c.idle); n > 0 {
		conn := c.idle[n-1]
		c.idle = c.idle[:n-1]
		return conn, true
	}
	return nil, false
}

// refill dials ahead in the background until the idle pool is full.
func (c *Client) refill() {
	c.mu.Lock()
	wanted := !c.closed && len(c.idle) < c.PoolSize
	c.mu.Unlock()
	if !wanted {
		return
	}
	go func() {
		conn, err := net.DialTimeout("tcp", c.Addr, lookupTimeout)
		if err != nil {
			return
		}
		c.mu.Lock()
		if !c.closed && len(c.idle) < c.PoolSize {
			c.idle = append(c.idle, conn)
			conn = nil
		}
		c.mu.Unlock()
		if conn != nil {
			conn.Close()
		}
	}()
}

// Close releases the pre-dialed connections. The Client stays usable — later
// lookups simply dial on demand — but stops dialing ahead.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	for _, conn := range c.idle {
		conn.Close()
	}
	c.idle = nil
	return nil
}
