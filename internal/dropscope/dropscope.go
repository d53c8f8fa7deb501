// Package dropscope implements the pending-delete list service modelled on
// Verisign's DomainScope: every day it publishes the names scheduled to be
// deleted within the next five days. The measurement pipeline's daily
// download of this list is the paper's source of deletion *dates* (the
// deletion *times* are what the core model infers).
//
// The server caches each whole five-day list per (store generation, start
// day, zone) in a gencache.Cache as a serve.Body, which answers conditional
// requests. The HTTP client does not revalidate: it fetches each day once and
// parses the whole body. A bound client renders and parses nothing: it takes
// the window's entries, names and all, from the store.
package dropscope

import (
	"bytes"
	"context"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"dropzero/internal/feed"
	"dropzero/internal/gencache"
	"dropzero/internal/model"
	"dropzero/internal/registry"
	"dropzero/internal/serve"
	"dropzero/internal/simtime"
)

// LookaheadDays is how far into the future published lists reach.
const LookaheadDays = 5

// Entry is one line of a pending-delete list: a name and its deletion day.
type Entry = registry.Pending

// listCacheSize bounds the list cache. A generation is asked for one list
// per (start day, zone) its readers want, a handful at most; the cache
// flushes wholesale on every store mutation anyway.
const listCacheSize = 64

// csvContentType is the shared Content-Type header value for list responses.
var csvContentType = []string{"text/csv"}

// Server publishes pending-delete lists over HTTP.
//
//	GET /pendingdelete?date=2018-01-02
//
// returns a CSV body (name,deleteDate) of all domains scheduled for deletion
// on the five days starting at date, with a strong ETag keyed on (store
// generation, date); HEAD answers with the same headers and no body. Whole
// lists are cached in a generation-checked gencache.Cache, filled as
// rdap.Server fills its own.
type Server struct {
	*serve.HTTP // Handler, Listen, ServeErr and Close

	store     *registry.Store
	mux       *http.ServeMux
	lists     *gencache.Cache[listKey, *serve.Body]
	requests  atomic.Uint64
	writeErrs atomic.Uint64
}

// listKey addresses one cached list: the day it starts at and the zone it
// is scoped to ("" = all zones, the default list).
type listKey struct {
	day  simtime.Day
	zone string
}

// NewServer returns a Server over store.
func NewServer(store *registry.Store) *Server {
	s := &Server{
		store: store,
		lists: gencache.New[listKey, *serve.Body](listCacheSize),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/pendingdelete", s.handleList)
	s.mux = mux
	s.HTTP = serve.NewHTTP("dropscope", mux)
	return s
}

// AttachFeed mounts hub's streaming endpoints (/deltas, /deltas/full,
// /events) on this server's mux, next to the daily list. It may run while
// the server takes traffic (a promoted replica attaches its first hub
// then), but only once.
func (s *Server) AttachFeed(hub *feed.Hub) {
	hub.Register(s.mux, "")
}

// Metrics is a snapshot of the server's serving activity.
type Metrics struct {
	// Requests counts list requests, including malformed ones.
	Requests uint64
	// Cache counts warm (cached list reused) versus cold list serves; 304
	// responses count as hits.
	Cache gencache.Counters
	// WriteErrors counts response bodies that failed mid-write. Clients
	// detect the truncation from Content-Length.
	WriteErrors uint64
}

// Metrics returns the request and cache-effectiveness counters.
func (s *Server) Metrics() Metrics {
	return Metrics{
		Requests:    s.requests.Load(),
		Cache:       s.lists.Stats(),
		WriteErrors: s.writeErrs.Load(),
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	// Fast path for the exact query the client emits (?date=YYYY-MM-DD):
	// r.URL.Query() builds a url.Values map per call, which is the only
	// allocation left on the warm serving path. A zone= parameter always
	// contains '&', so zone-scoped requests take the url.Values path.
	dateStr, fast := strings.CutPrefix(r.URL.RawQuery, "date=")
	zoneName := ""
	if !fast || strings.ContainsAny(dateStr, "&%+;") {
		q := r.URL.Query()
		dateStr = q.Get("date")
		zoneName = q.Get("zone")
	}
	start, err := simtime.ParseDay(dateStr)
	if err != nil {
		http.Error(w, fmt.Sprintf("bad date %q: %v", dateStr, err), http.StatusBadRequest)
		return
	}
	var tlds map[model.TLD]bool
	if zoneName != "" {
		z, ok := s.store.ZoneByName(zoneName)
		if !ok {
			http.Error(w, fmt.Sprintf("unknown zone %q", zoneName), http.StatusNotFound)
			return
		}
		tlds = z.TLDSet()
	}

	if err := s.list(listKey{start, zoneName}, tlds).Write(w, r, csvContentType); err != nil {
		s.writeErrs.Add(1)
	}
}

// list returns the list key names, narrowed to the TLDs in tlds when the key
// has a zone: the cached one for the store's generation, or a fresh render.
// It follows the Store.Generation contract: read the generation, render,
// read it again, and cache only when the two match. A render the store
// mutated under still lists each name once, as its shard stood when read
// (PendingDeletions), so it is served, but uncached and without an ETag,
// because it belongs to no generation it could name. A zone's ETag carries an @zone
// suffix: zone bodies differ, so their validators must too.
func (s *Server) list(key listKey, tlds map[model.TLD]bool) *serve.Body {
	gen := s.store.Generation()
	if cl, ok := s.lists.Get(gen, key); ok {
		return cl
	}
	body := renderWindow(s.store, key.day, LookaheadDays, tlds)
	if s.store.Generation() != gen {
		cl := serve.NewBody(body, "")
		return &cl
	}
	etag := `"` + strconv.FormatUint(gen, 10) + "-" + key.day.String()
	if key.zone != "" {
		etag += "@" + key.zone
	}
	cl := serve.NewBody(body, etag+`"`)
	s.lists.Put(gen, key, &cl)
	return &cl
}

// renderWindow renders the CSV lines for all domains scheduled for deletion
// in [start, start+days), narrowed to the TLDs in tlds when non-nil: the
// bytes RenderEntries writes for them. A stored name is lower-case LDH (the
// store admits no other) and a day is digits and hyphens, so no field needs
// csv.Writer's quoting, and each day is formatted once.
func renderWindow(store *registry.Store, start simtime.Day, days int, tlds map[model.TLD]bool) []byte {
	rows := store.PendingDeletions(start, days)
	if tlds != nil {
		rows = slices.DeleteFunc(rows, func(e Entry) bool { tld, _ := model.TLDOf(e.Name); return !tlds[tld] })
	}
	size := 0
	for _, e := range rows {
		size += len(e.Name) + len(",YYYY-MM-DD\n")
	}
	body, day, date := make([]byte, 0, size), uint16(0), []byte(nil)
	for _, e := range rows { // a pending name's day is never the zero Day
		if e.PackedDeleteDay() != day {
			day, date = e.PackedDeleteDay(), e.DeleteDay().AppendTo(date[:0])
		}
		body = append(append(append(append(body, e.Name...), ','), date...), '\n')
	}
	return body
}

// Client downloads pending-delete lists. It does not revalidate: its callers
// fetch each day once. It holds no state but where it fetches from, so it is
// safe for concurrent use. (A client that can hold a cursor skips the daily
// body entirely: feed.SyncDeltas keeps a mirror of the pending-delete set
// from the /deltas endpoint this server mounts.)
type Client struct {
	srv  *Server // set on a bound client, the rest on an HTTP one
	base *url.URL
	http *http.Client
}

// NewClient returns a Client for the service at baseURL.
func NewClient(baseURL string, httpClient *http.Client) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("dropscope: parse base URL: %w", err)
	}
	if httpClient == nil {
		httpClient = &http.Client{Timeout: 30 * time.Second}
	}
	return &Client{base: u, http: httpClient}, nil
}

// NewBoundClient returns a Client that takes the entries of srv's list from
// its store and counts the request, as an HTTP GET would: no body is
// rendered or parsed, srv's list cache is not read, no name is copied.
func NewBoundClient(srv *Server) *Client { return &Client{srv: srv} }

// Fetch downloads the list published for day, in (deletion day, name)
// order; a bound client returns Store.PendingDeletions as it is.
func (c *Client) Fetch(ctx context.Context, day simtime.Day) ([]Entry, error) {
	if c.srv != nil {
		if err := ctx.Err(); err != nil { // no transport to notice it
			return nil, err
		}
		c.srv.requests.Add(1)
		return c.srv.store.PendingDeletions(day, LookaheadDays), nil
	}
	u := *c.base
	u.Path = "/pendingdelete"
	u.RawQuery = url.Values{"date": {day.String()}}.Encode()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u.String(), nil)
	if err != nil {
		return nil, fmt.Errorf("dropscope: build request: %w", err)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("dropscope: GET %s: %w", u.String(), err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// Read a bounded rest of the error body so the connection is reused.
		_, _ = io.CopyN(io.Discard, resp.Body, 4<<10)
		return nil, fmt.Errorf("dropscope: HTTP %d for %s", resp.StatusCode, u.String())
	}
	return ParseList(resp.Body)
}

// RenderEntries renders entries in the server's list CSV format, for
// byte-identical comparisons between fetched and delta-derived windows.
func RenderEntries(entries []Entry) []byte {
	var buf bytes.Buffer
	cw := csv.NewWriter(&buf)
	for _, e := range entries {
		if err := cw.Write([]string{e.Name, e.DeleteDay().String()}); err != nil {
			panic(err) // csv.Writer cannot fail writing to a bytes.Buffer
		}
	}
	cw.Flush()
	return buf.Bytes()
}

// ParseList decodes a CSV pending-delete list. The entries' names are slices
// of one string holding every name of the list, lower-cased, and nothing
// else: a consumer that keeps the names for months (the measurement pipeline
// does) pins neither the date column nor one allocation per line. On a
// malformed line the entries before it are returned with the error.
func ParseList(r io.Reader) ([]Entry, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 2
	cr.ReuseRecord = true
	var (
		out   []Entry
		names []byte // the names end to end
		ends  []int  // ends[i] is where out[i]'s name ends in names
	)
	finish := func(err error) ([]Entry, error) {
		arena, start := string(names), 0
		for i, end := range ends {
			out[i].Name = arena[start:end]
			start = end
		}
		return out, err
	}
	for {
		rec, err := cr.Read()
		if errors.Is(err, io.EOF) {
			return finish(nil)
		}
		if err != nil {
			return finish(fmt.Errorf("dropscope: parse list: %w", err))
		}
		day, err := simtime.ParseDay(rec[1])
		if err != nil {
			return finish(fmt.Errorf("dropscope: bad delete date %q: %w", rec[1], err))
		}
		e, err := registry.NewPending(strings.ToLower(rec[0]), day)
		if err != nil {
			return finish(fmt.Errorf("dropscope: bad delete date %q: %w", rec[1], err))
		}
		names = append(names, e.Name...)
		ends = append(ends, len(names))
		out = append(out, e)
	}
}
