// Package dropscope implements the pending-delete list service modelled on
// Verisign's DomainScope: every day it publishes the names scheduled to be
// deleted within the next five days. The measurement pipeline's daily
// download of this list is the paper's source of deletion *dates* (the
// deletion *times* are what the core model infers).
//
// The server caches each whole five-day list per (store generation, start
// day, zone) in a gencache.Cache and serves the cached bytes with a strong
// ETag and If-None-Match/304 handling. The client does not revalidate: it
// fetches each day once, and because consecutive lists share four of their
// five days (the lookahead window slides by one day), it reuses the parsed
// entries of every day segment whose bytes are unchanged.
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
	"strconv"
	"strings"
	"sync"
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

// Entry is one line of a pending-delete list.
type Entry struct {
	Name      string
	DeleteDay simtime.Day
}

// listCacheSize bounds the list cache. A generation is asked for one list
// per (start day, zone) its readers want, a handful at most; the cache
// flushes wholesale on every store mutation anyway.
const listCacheSize = 64

// cachedList is one rendered publication list. The header values are
// pre-built []string slices so the warm serving path performs no per-request
// allocations beyond the ResponseWriter's own. etag is empty for a list
// rendered while the store mutated, which is served once and never cached.
type cachedList struct {
	body    []byte
	etag    string
	etagVal []string // {etag}
	clenVal []string // {strconv.Itoa(len(body))}
}

// csvContentType is the shared Content-Type header value for list responses.
var csvContentType = []string{"text/csv"}

// Server publishes pending-delete lists over HTTP.
//
//	GET /pendingdelete?date=2018-01-02
//
// returns a CSV body (name,deleteDate) of all domains scheduled for deletion
// on the five days starting at date. Responses carry Content-Length and a
// strong ETag keyed on (store generation, date); requests with a matching
// If-None-Match get 304 Not Modified. Whole lists are cached in a
// generation-checked gencache.Cache, filled as rdap.Server fills its own.
type Server struct {
	*serve.HTTP // Handler, Listen, ServeErr and Close

	store     *registry.Store
	mux       *http.ServeMux
	lists     *gencache.Cache[listKey, *cachedList]
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
		lists: gencache.New[listKey, *cachedList](listCacheSize),
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
	if r.Method != http.MethodGet {
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
	start, err := ParseDay(dateStr)
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

	cl := s.list(listKey{start, zoneName}, tlds)
	h := w.Header()
	if cl.etag != "" {
		h["Etag"] = cl.etagVal
		if r.Header.Get("If-None-Match") == cl.etag {
			w.WriteHeader(http.StatusNotModified)
			return
		}
	}
	h["Content-Type"] = csvContentType
	// Content-Length is set up front so a client can detect a truncated
	// body: a failed mid-body write used to produce a silently short 200.
	h["Content-Length"] = cl.clenVal
	if _, err := w.Write(cl.body); err != nil {
		s.writeErrs.Add(1)
	}
}

// list returns the list key names, narrowed to the TLDs in tlds when the key
// has a zone: the cached one for the store's generation, or a fresh render.
// It follows the Store.Generation contract: read the generation, render,
// read it again, and cache only when the two match. A render the store
// mutated under is still one consistent snapshot (one PendingDeletions
// call), so it is served, but uncached and without an ETag, because it
// belongs to no generation it could name. A zone's ETag carries an @zone
// suffix: zone bodies differ, so their validators must too.
func (s *Server) list(key listKey, tlds map[model.TLD]bool) *cachedList {
	gen := s.store.Generation()
	if cl, ok := s.lists.Get(gen, key); ok {
		return cl
	}
	body := renderWindow(s.store, key.day, LookaheadDays, tlds)
	cl := &cachedList{body: body, clenVal: []string{strconv.Itoa(len(body))}}
	if s.store.Generation() != gen {
		return cl
	}
	cl.etag = `"` + strconv.FormatUint(gen, 10) + "-" + key.day.String()
	if key.zone != "" {
		cl.etag += "@" + key.zone
	}
	cl.etag += `"`
	cl.etagVal = []string{cl.etag}
	s.lists.Put(gen, key, cl)
	return cl
}

// renderWindow renders the CSV lines for all domains scheduled for deletion
// in [start, start+days), narrowed to the TLDs in tlds when non-nil. One
// PendingDeletions call means one store read lock: the result is a
// consistent snapshot.
func renderWindow(store *registry.Store, start simtime.Day, days int, tlds map[model.TLD]bool) []byte {
	var buf bytes.Buffer
	cw := csv.NewWriter(&buf)
	for _, d := range store.PendingDeletions(start, days) {
		if tlds != nil && !tlds[d.TLD] {
			continue
		}
		if err := cw.Write([]string{d.Name, d.DeleteDay.String()}); err != nil {
			// csv.Writer cannot fail writing to a bytes.Buffer.
			panic(err)
		}
	}
	cw.Flush()
	return buf.Bytes()
}

// ParseDay parses a YYYY-MM-DD day string.
func ParseDay(s string) (simtime.Day, error) {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		return simtime.Day{}, err
	}
	return simtime.DayOf(t), nil
}

// Client downloads pending-delete lists. It does not revalidate: every
// fetch is a plain GET, and its callers fetch each day once. A 200 is diffed
// per deletion-day segment against the previous body instead: consecutive
// publications share four of their five days, and an unchanged day's bytes
// reuse the already-parsed entries instead of re-parsing the whole list.
// (A client that can hold a cursor skips the daily body entirely:
// feed.SyncDeltas keeps a mirror of the pending-delete set from the /deltas
// endpoint this server mounts.)
type Client struct {
	srv  *Server // set on a bound client, the other two on an HTTP one
	base *url.URL
	http *http.Client

	mu   sync.Mutex
	days map[simtime.Day]*dayCached // by deletion day

	segReused atomic.Uint64
	segParsed atomic.Uint64
}

// dayCached is one deletion day's slice of the last list body: the raw CSV
// bytes (the identity check) and their parsed entries (what an unchanged
// day reuses).
type dayCached struct {
	raw     []byte
	entries []Entry
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
	return &Client{
		base: u,
		http: httpClient,
		days: make(map[simtime.Day]*dayCached),
	}, nil
}

// NewBoundClient returns a Client that takes srv's list bodies (and counts
// them) as an HTTP GET would, without the request.
func NewBoundClient(srv *Server) *Client {
	return &Client{srv: srv, days: make(map[simtime.Day]*dayCached)}
}

// SegmentCounters reports how many per-day segments of 200 responses were
// reused from the previous parse versus parsed fresh — the regression
// signal for the sliding-window fast path.
func (c *Client) SegmentCounters() (reused, parsed uint64) {
	return c.segReused.Load(), c.segParsed.Load()
}

// Fetch downloads the list published for day.
func (c *Client) Fetch(ctx context.Context, day simtime.Day) ([]Entry, error) {
	if c.srv != nil {
		if err := ctx.Err(); err != nil { // no transport to notice it
			return nil, err
		}
		c.srv.requests.Add(1)
		return c.assembleBody(day, c.srv.list(listKey{day: day}, nil).body)
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
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("dropscope: read list: %w", err)
	}
	return c.assembleBody(day, body)
}

// assembleBody turns a 200 list body into entries, reusing the parsed
// entries of every deletion-day segment whose bytes are unchanged since the
// previous fetch. The body is sorted by (deleteDay, name), so each day's
// lines are one contiguous chunk and chunk identity is a byte comparison.
func (c *Client) assembleBody(start simtime.Day, body []byte) ([]Entry, error) {
	chunks := splitDayChunks(body)
	entries := make([]Entry, 0, 64)
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ch := range chunks {
		if dc := c.days[ch.day]; dc != nil && bytes.Equal(dc.raw, ch.raw) {
			c.segReused.Add(1)
			entries = append(entries, dc.entries...)
			continue
		}
		c.segParsed.Add(1)
		parsed, err := ParseList(bytes.NewReader(ch.raw))
		if err != nil {
			return entries, err
		}
		c.days[ch.day] = &dayCached{raw: ch.raw, entries: parsed}
		entries = append(entries, parsed...)
	}
	// Days the window has slid past can never byte-match again.
	for d := range c.days {
		if d.Before(start) {
			delete(c.days, d)
		}
	}
	return entries, nil
}

// dayChunk is the contiguous run of list lines sharing one deletion day.
type dayChunk struct {
	day simtime.Day
	raw []byte
}

// splitDayChunks slices a list body into per-deletion-day chunks without
// parsing: each line ends ",YYYY-MM-DD" and the body is day-ordered. Lines
// that do not look like that land in a chunk with a zero day, which never
// byte-matches a cached segment and falls through to the real CSV parser
// (where any malformation is reported).
func splitDayChunks(body []byte) []dayChunk {
	var chunks []dayChunk
	var curDay simtime.Day
	start := 0
	lineStart := 0
	flush := func(end int) {
		if end > start {
			chunks = append(chunks, dayChunk{day: curDay, raw: body[start:end]})
		}
		start = end
	}
	for i := 0; i < len(body); i++ {
		if body[i] != '\n' {
			continue
		}
		line := body[lineStart:i]
		var day simtime.Day
		if j := bytes.LastIndexByte(line, ','); j >= 0 {
			if d, err := ParseDay(string(line[j+1:])); err == nil {
				day = d
			}
		}
		if lineStart == 0 {
			curDay = day
		} else if day != curDay {
			flush(lineStart)
			curDay = day
		}
		lineStart = i + 1
	}
	flush(len(body))
	if lineStart < len(body) {
		// Trailing bytes without a newline: keep them so the parser sees
		// (and reports) the truncation.
		chunks = append(chunks, dayChunk{raw: body[lineStart:]})
	}
	return chunks
}

// RenderEntries renders entries in the server's list CSV format, for
// byte-identical comparisons between fetched and delta-derived windows.
func RenderEntries(entries []Entry) []byte {
	var buf bytes.Buffer
	cw := csv.NewWriter(&buf)
	for _, e := range entries {
		if err := cw.Write([]string{e.Name, e.DeleteDay.String()}); err != nil {
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
		day, err := ParseDay(rec[1])
		if err != nil {
			return finish(fmt.Errorf("dropscope: bad delete date %q: %w", rec[1], err))
		}
		names = append(names, strings.ToLower(rec[0])...)
		ends = append(ends, len(names))
		out = append(out, Entry{DeleteDay: day})
	}
}
