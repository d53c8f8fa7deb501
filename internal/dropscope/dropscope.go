// Package dropscope implements the pending-delete list service modelled on
// Verisign's DomainScope: every day it publishes the names scheduled to be
// deleted within the next five days. The measurement pipeline's daily
// download of this list is the paper's source of deletion *dates* (the
// deletion *times* are what the core model infers).
//
// The server pre-renders each publication day's CSV once per (day, store
// generation) and serves the cached bytes with a strong ETag and
// If-None-Match/304 handling. Because consecutive lists share four of their
// five days (the lookahead window slides by one day), the cache works in
// per-day segments: a new day's list only renders the one segment it does
// not share with yesterday's.
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

// cachedList is one fully assembled publication list. The header values are
// pre-built []string slices so the warm serving path performs no per-request
// allocations beyond the ResponseWriter's own.
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
// If-None-Match get 304 Not Modified.
type Server struct {
	*serve.HTTP // Handler, Listen, ServeErr and Close

	store     *registry.Store
	mux       *http.ServeMux
	requests  atomic.Uint64
	hits      atomic.Uint64
	misses    atomic.Uint64
	writeErrs atomic.Uint64

	// mu guards the generation-checked render cache. segs holds one
	// rendered CSV segment per (deletion day, zone); lists holds the
	// assembled five-day bodies by (start day, zone). The zone key is ""
	// for the unscoped list — the pre-federation cache shape, so default
	// requests share nothing with zone-scoped ones and stay byte-identical.
	// Both maps are valid for generation cgen only and are flushed
	// wholesale when the store moves on.
	mu    sync.Mutex
	cgen  uint64
	segs  map[listKey][]byte
	lists map[listKey]*cachedList
}

// listKey addresses one cached render: the day it starts at and the zone it
// is scoped to ("" = all zones, the default list).
type listKey struct {
	day  simtime.Day
	zone string
}

// NewServer returns a Server over store.
func NewServer(store *registry.Store) *Server {
	s := &Server{
		store: store,
		segs:  make(map[listKey][]byte),
		lists: make(map[listKey]*cachedList),
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
	// Cache counts warm (fully assembled body reused) versus cold list
	// serves; 304 responses count as hits.
	Cache gencache.Counters
	// WriteErrors counts response bodies that failed mid-write. Clients
	// detect the truncation from Content-Length.
	WriteErrors uint64
}

// Metrics returns the request and cache-effectiveness counters.
func (s *Server) Metrics() Metrics {
	return Metrics{
		Requests:    s.requests.Load(),
		Cache:       gencache.Counters{Hits: s.hits.Load(), Misses: s.misses.Load()},
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

	gen := s.store.Generation()
	s.mu.Lock()
	s.flushTo(gen)
	cl, ok := s.lists[listKey{start, zoneName}]
	s.mu.Unlock()
	if ok {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
		cl, ok = s.buildList(gen, start, zoneName, tlds)
		if !ok {
			// The store mutated while rendering. The body below is still a
			// single consistent snapshot (one PendingDeletions call), so
			// serve it — but uncached and without an ETag, because we cannot
			// name the generation it belongs to.
			body := renderWindow(s.store, start, LookaheadDays, tlds)
			h := w.Header()
			h["Content-Type"] = csvContentType
			h["Content-Length"] = []string{strconv.Itoa(len(body))}
			if _, err := w.Write(body); err != nil {
				s.writeErrs.Add(1)
			}
			return
		}
	}

	h := w.Header()
	h["Etag"] = cl.etagVal
	if r.Header.Get("If-None-Match") == cl.etag {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	h["Content-Type"] = csvContentType
	// Content-Length is set up front so a client can detect a truncated
	// body: a failed mid-body write used to produce a silently short 200.
	h["Content-Length"] = cl.clenVal
	if _, err := w.Write(cl.body); err != nil {
		s.writeErrs.Add(1)
	}
}

// flushTo discards cached segments and lists when gen is newer than the
// cached generation. The caller holds s.mu.
func (s *Server) flushTo(gen uint64) {
	if gen > s.cgen {
		clear(s.segs)
		clear(s.lists)
		s.cgen = gen
	}
}

// buildList renders and caches the list starting at start for generation
// gen, reusing any per-day segments already rendered under gen. ok=false
// means the store's generation moved while rendering and nothing was cached.
// A non-empty zoneName narrows the list to the zone with TLD membership
// tlds and suffixes the ETag with @zone (zone bodies differ, so their
// validators must too).
func (s *Server) buildList(gen uint64, start simtime.Day, zoneName string, tlds map[model.TLD]bool) (*cachedList, bool) {
	end := start.AddDays(LookaheadDays)
	s.mu.Lock()
	if s.cgen != gen {
		s.mu.Unlock()
		return nil, false
	}
	var missing []simtime.Day
	for d := start; d.Before(end); d = d.Next() {
		if _, ok := s.segs[listKey{d, zoneName}]; !ok {
			missing = append(missing, d)
		}
	}
	s.mu.Unlock()

	// Missing segments are rendered outside s.mu (each render takes the
	// store's read lock); a concurrent mutation is detected by re-reading
	// the generation before installing, per the Store.Generation contract.
	built := make(map[simtime.Day][]byte, len(missing))
	for _, d := range missing {
		built[d] = renderWindow(s.store, d, 1, tlds)
	}
	if s.store.Generation() != gen {
		return nil, false // segments may straddle a mutation; do not cache
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cgen != gen {
		return nil, false
	}
	for d, seg := range built {
		s.segs[listKey{d, zoneName}] = seg
	}
	// Under an unchanged generation segments are only ever added, so the
	// whole window is now present.
	n := 0
	for d := start; d.Before(end); d = d.Next() {
		n += len(s.segs[listKey{d, zoneName}])
	}
	body := make([]byte, 0, n)
	for d := start; d.Before(end); d = d.Next() {
		body = append(body, s.segs[listKey{d, zoneName}]...)
	}
	etag := `"` + strconv.FormatUint(gen, 10) + "-" + start.String()
	if zoneName != "" {
		etag += "@" + zoneName
	}
	etag += `"`
	cl := &cachedList{
		body:    body,
		etag:    etag,
		etagVal: []string{etag},
		clenVal: []string{strconv.Itoa(len(body))},
	}
	s.lists[listKey{start, zoneName}] = cl
	return cl, true
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

// Client downloads pending-delete lists. It remembers each day's ETag and
// parsed entries, revalidates with If-None-Match, and reuses the parsed list
// on 304 Not Modified — repeated fetches of an unchanged day cost neither a
// body transfer nor a re-parse. A 200 is additionally diffed per deletion-day
// segment against the previous body: consecutive publications share four of
// their five days, and an unchanged day's bytes reuse the already-parsed
// entries instead of re-parsing the whole list. (A client that can hold a
// cursor skips the daily body entirely: feed.SyncDeltas keeps a mirror of
// the pending-delete set from the /deltas endpoint this server mounts.)
type Client struct {
	base *url.URL
	http *http.Client

	mu    sync.Mutex
	cache map[simtime.Day]*clientCached // by list start day
	days  map[simtime.Day]*dayCached    // by deletion day

	segReused atomic.Uint64
	segParsed atomic.Uint64
}

type clientCached struct {
	etag    string
	entries []Entry
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
		base:  u,
		http:  httpClient,
		cache: make(map[simtime.Day]*clientCached),
		days:  make(map[simtime.Day]*dayCached),
	}, nil
}

// SegmentCounters reports how many per-day segments of 200 responses were
// reused from the previous parse versus parsed fresh — the regression
// signal for the sliding-window fast path.
func (c *Client) SegmentCounters() (reused, parsed uint64) {
	return c.segReused.Load(), c.segParsed.Load()
}

// Fetch downloads the list published for day.
func (c *Client) Fetch(ctx context.Context, day simtime.Day) ([]Entry, error) {
	u := *c.base
	u.Path = "/pendingdelete"
	u.RawQuery = url.Values{"date": {day.String()}}.Encode()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u.String(), nil)
	if err != nil {
		return nil, fmt.Errorf("dropscope: build request: %w", err)
	}
	c.mu.Lock()
	prior := c.cache[day]
	c.mu.Unlock()
	if prior != nil {
		req.Header.Set("If-None-Match", prior.etag)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("dropscope: GET %s: %w", u.String(), err)
	}
	defer resp.Body.Close()
	if prior != nil && resp.StatusCode == http.StatusNotModified {
		return append([]Entry(nil), prior.entries...), nil
	}
	if resp.StatusCode != http.StatusOK {
		// Read a bounded rest of the error body so the connection is reused.
		_, _ = io.CopyN(io.Discard, resp.Body, 4<<10)
		return nil, fmt.Errorf("dropscope: HTTP %d for %s", resp.StatusCode, u.String())
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("dropscope: read list: %w", err)
	}
	entries, err := c.assembleBody(day, body)
	if err != nil {
		return entries, err
	}
	if etag := resp.Header.Get("ETag"); etag != "" {
		c.mu.Lock()
		c.cache[day] = &clientCached{etag: etag, entries: append([]Entry(nil), entries...)}
		c.mu.Unlock()
	}
	return entries, nil
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
