package feed

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"dropzero/internal/simtime"
)

// ParseOps decodes delta CSV lines (op,name,day) — the /deltas body and the
// data lines of an SSE delta frame.
func ParseOps(b []byte) ([]Op, error) {
	var ops []Op
	for len(b) > 0 {
		line := b
		if i := bytes.IndexByte(b, '\n'); i >= 0 {
			line, b = b[:i], b[i+1:]
		} else {
			b = nil
		}
		if len(line) == 0 {
			continue
		}
		op, err := parseOpLine(string(line))
		if err != nil {
			return nil, err
		}
		ops = append(ops, op)
	}
	return ops, nil
}

func parseOpLine(line string) (Op, error) {
	if len(line) < 2 || line[1] != ',' {
		return Op{}, fmt.Errorf("feed: malformed delta line %q", line)
	}
	kind := OpKind(line[0])
	switch kind {
	case OpAdd, OpRemove, OpPurge, OpRereg:
	default:
		return Op{}, fmt.Errorf("feed: unknown op %q in %q", line[0], line)
	}
	rest := line[2:]
	i := strings.LastIndexByte(rest, ',')
	if i < 0 {
		return Op{}, fmt.Errorf("feed: malformed delta line %q", line)
	}
	op := Op{Kind: kind, Name: rest[:i]}
	if kind == OpAdd {
		day, err := simtime.ParseDay(rest[i+1:])
		if err != nil {
			return Op{}, fmt.Errorf("feed: bad day in %q: %w", line, err)
		}
		op.Day = day
	}
	return op, nil
}

// ParseFull decodes a /deltas/full body (name,day CSV lines).
func ParseFull(b []byte) ([]Item, error) {
	var items []Item
	for len(b) > 0 {
		line := b
		if i := bytes.IndexByte(b, '\n'); i >= 0 {
			line, b = b[:i], b[i+1:]
		} else {
			b = nil
		}
		if len(line) == 0 {
			continue
		}
		i := bytes.LastIndexByte(line, ',')
		if i < 0 {
			return nil, fmt.Errorf("feed: malformed list line %q", line)
		}
		day, err := simtime.ParseDay(string(line[i+1:]))
		if err != nil {
			return nil, fmt.Errorf("feed: bad day in %q: %w", line, err)
		}
		items = append(items, Item{Name: string(line[:i]), Day: day})
	}
	return items, nil
}

// Mirror is a client-side replica of the server's pending-delete list,
// advanced by applying delta ops in cursor order. Frames at or before the
// mirror's cursor are skipped, so replays and catch-up overlaps are
// harmless; op application itself is idempotent.
type Mirror struct {
	mu      sync.Mutex
	pending map[string]simtime.Day
	cursor  uint64
	primed  bool
}

// NewMirror returns an empty, unprimed mirror.
func NewMirror() *Mirror {
	return &Mirror{pending: make(map[string]simtime.Day)}
}

// ResetFull replaces the mirror's contents with a full list consistent with
// cursor — the join point (from /deltas/full) and the reset-recovery path.
func (m *Mirror) ResetFull(items []Item, cursor uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	clear(m.pending)
	for _, it := range items {
		m.pending[it.Name] = it.Day
	}
	m.cursor = cursor
	m.primed = true
}

// ApplyOps folds one delta batch ending at cursor to into the mirror.
// Batches at or before the current cursor are skipped (replay overlap).
func (m *Mirror) ApplyOps(to uint64, ops []Op) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if to <= m.cursor {
		return
	}
	for _, op := range ops {
		switch op.Kind {
		case OpAdd:
			m.pending[op.Name] = op.Day
		case OpRemove, OpPurge:
			delete(m.pending, op.Name)
		case OpRereg:
			// Re-registration does not change the pending-delete list.
		}
	}
	m.cursor = to
}

// Cursor returns the last cursor folded into the mirror.
func (m *Mirror) Cursor() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cursor
}

// Primed reports whether the mirror has been initialised with a full list.
func (m *Mirror) Primed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.primed
}

// Len returns the number of pending-delete entries mirrored.
func (m *Mirror) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.pending)
}

// Items returns the mirrored list sorted by (day, name) — the same order
// every server render uses, so outputs are byte-comparable.
func (m *Mirror) Items() []Item {
	m.mu.Lock()
	items := make([]Item, 0, len(m.pending))
	for name, day := range m.pending {
		items = append(items, Item{Name: name, Day: day})
	}
	m.mu.Unlock()
	sortItems(items)
	return items
}

// FetchFull GETs base+"/deltas/full" and resets m to it. Returns the cursor
// the list is consistent with.
func FetchFull(ctx context.Context, hc *http.Client, base string, m *Mirror) (uint64, error) {
	if hc == nil {
		hc = http.DefaultClient
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/deltas/full", nil)
	if err != nil {
		return 0, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("feed: full list fetch: %s", resp.Status)
	}
	cursor, err := strconv.ParseUint(resp.Header.Get("X-Feed-Cursor"), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("feed: full list missing X-Feed-Cursor: %w", err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	items, err := ParseFull(body)
	if err != nil {
		return 0, err
	}
	m.ResetFull(items, cursor)
	return cursor, nil
}

// SyncDeltas advances m by GETting base+"/deltas?since=<m.Cursor()>". When
// the server redirects to the full list (unprimed or evicted cursor), the
// mirror is reset from it instead — either way m ends consistent with the
// returned cursor.
func SyncDeltas(ctx context.Context, hc *http.Client, base string, m *Mirror) (uint64, error) {
	if hc == nil {
		hc = http.DefaultClient
	}
	if !m.Primed() {
		return FetchFull(ctx, hc, base, m)
	}
	since := m.Cursor()
	url := base + "/deltas?since=" + strconv.FormatUint(since, 10)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("feed: delta fetch: %s", resp.Status)
	}
	cursor, err := strconv.ParseUint(resp.Header.Get("X-Feed-Cursor"), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("feed: delta response missing X-Feed-Cursor: %w", err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.Header.Get("X-Feed-Full") == "1" {
		// The client followed the 303: the ring could not serve our cursor.
		items, err := ParseFull(body)
		if err != nil {
			return 0, err
		}
		m.ResetFull(items, cursor)
		return cursor, nil
	}
	ops, err := ParseOps(body)
	if err != nil {
		return 0, err
	}
	m.ApplyOps(cursor, ops)
	return cursor, nil
}

// Event is one delivered event batch as a Subscriber sees it. Sent is the
// producer-side instant embedded in the event (the store-mutation receipt),
// so receipt-minus-Sent is the end-to-end fan-out latency.
type Event struct {
	Sent    time.Time
	Records int  // mutation records covered by the batch
	Resumed bool // delivered through a slow-consumer catch-up
	Reset   bool // stream lost ring coverage; consumer refetched the full list
}

// Subscriber is one /events SSE stream. With an attached Mirror it also
// keeps the mirror current, transparently refetching the full list when the
// server sends a reset frame.
type Subscriber struct {
	hc     *http.Client
	base   string
	mirror *Mirror
	body   io.ReadCloser
	br     *bufio.Reader

	resumed bool
	cursor  uint64
}

// Subscribe opens an SSE stream at base+"/events". With since >= 0 the
// stream resumes from that cursor; since < 0 starts live at the server's
// current cursor. mirror may be nil (measurement-only subscriber). The
// http.Client must not have a Timeout (it would kill the stream); nil uses
// a zero-value client.
func Subscribe(ctx context.Context, hc *http.Client, base string, since int64, mirror *Mirror) (*Subscriber, error) {
	if hc == nil {
		hc = &http.Client{}
	}
	url := base + "/events"
	if since >= 0 {
		url += "?since=" + strconv.FormatInt(since, 10)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("feed: subscribe: %s", resp.Status)
	}
	return &Subscriber{
		hc:     hc,
		base:   base,
		mirror: mirror,
		body:   resp.Body,
		br:     bufio.NewReader(resp.Body),
	}, nil
}

// Mirror returns the subscriber's attached mirror (nil if none).
func (s *Subscriber) Mirror() *Mirror { return s.mirror }

// Cursor returns the highest batch boundary the subscriber has applied —
// comparable against Hub.Cursor to decide whether the stream has caught up.
// Not safe for use concurrent with Next.
func (s *Subscriber) Cursor() uint64 { return s.cursor }

// Close tears the stream down; a concurrent Next unblocks with an error.
func (s *Subscriber) Close() error { return s.body.Close() }

// Next blocks for the next delta batch. Hello and resume frames are
// consumed internally (resume marks the next delta Resumed); a reset frame
// refetches the full list into the mirror and surfaces as a Reset event.
func (s *Subscriber) Next() (Event, error) {
	for {
		event, data, err := s.readFrame()
		if err != nil {
			return Event{}, err
		}
		switch event {
		case "hello":
			// Liveness marker only.
		case "resume":
			s.resumed = true
		case "reset":
			cursor, err := strconv.ParseUint(strings.TrimSpace(data), 10, 64)
			if err != nil {
				return Event{}, fmt.Errorf("feed: bad reset frame %q", data)
			}
			s.cursor = cursor
			if s.mirror != nil {
				// The stream continues from cursor; rebase the mirror on a
				// full list at least that fresh. Frames already in flight
				// with to <= the refetched cursor are skipped by ApplyOps.
				if _, err := FetchFull(context.Background(), s.hc, s.base, s.mirror); err != nil {
					return Event{}, fmt.Errorf("feed: resync after reset: %w", err)
				}
			}
			s.resumed = false
			return Event{Reset: true}, nil
		case "delta":
			ev, err := s.applyDelta(data)
			if err != nil {
				return Event{}, err
			}
			ev.Resumed = s.resumed
			s.resumed = false
			return ev, nil
		}
	}
}

// applyDelta parses one delta frame's payload: the header data line
// "<from> <to> <sentUnixNano> <nops>" followed by one op line per op.
func (s *Subscriber) applyDelta(data string) (Event, error) {
	header, rest, _ := strings.Cut(data, "\n")
	f := strings.Fields(header)
	if len(f) != 4 {
		return Event{}, fmt.Errorf("feed: bad delta header %q", header)
	}
	from, err1 := strconv.ParseUint(f[0], 10, 64)
	to, err2 := strconv.ParseUint(f[1], 10, 64)
	sent, err3 := strconv.ParseInt(f[2], 10, 64)
	nops, err4 := strconv.Atoi(f[3])
	if err1 != nil || err2 != nil || err3 != nil || err4 != nil || to < from {
		return Event{}, fmt.Errorf("feed: bad delta header %q", header)
	}
	var ops []Op
	if rest != "" {
		var err error
		ops, err = ParseOps([]byte(rest))
		if err != nil {
			return Event{}, err
		}
	}
	if len(ops) != nops {
		return Event{}, fmt.Errorf("feed: delta frame declared %d ops, carried %d", nops, len(ops))
	}
	if s.mirror != nil {
		s.mirror.ApplyOps(to, ops)
	}
	if to > s.cursor {
		s.cursor = to
	}
	return Event{
		Sent:    time.Unix(0, sent),
		Records: len(ops),
	}, nil
}

// readFrame reads one SSE frame: event name and the data payload (multiple
// data lines joined with \n). id lines and comments are skipped.
func (s *Subscriber) readFrame() (event, data string, err error) {
	var dataBuf strings.Builder
	for {
		line, err := s.br.ReadString('\n')
		if err != nil {
			return "", "", err
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case line == "":
			if event != "" || dataBuf.Len() > 0 {
				return event, dataBuf.String(), nil
			}
			// Leading blank line: keep reading.
		case strings.HasPrefix(line, "event: "):
			event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			if dataBuf.Len() > 0 {
				dataBuf.WriteByte('\n')
			}
			dataBuf.WriteString(line[len("data: "):])
		case strings.HasPrefix(line, ":") || strings.HasPrefix(line, "id: "):
			// Comment / event id: ignored (Last-Event-ID is handled by the
			// caller re-subscribing with since=).
		}
	}
}
