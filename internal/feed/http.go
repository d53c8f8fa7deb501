package feed

import (
	"net/http"
	"slices"
	"strconv"
	"time"

	"dropzero/internal/model"
	"dropzero/internal/serve"
)

// maxLongPoll caps the wait= long-poll parameter.
const maxLongPoll = 30 * time.Second

// Header values shared by every /deltas and /deltas/full answer.
var (
	csvContentType = []string{"text/csv; charset=utf-8"}
	feedFullVal    = []string{"1"}
)

// Register mounts the feed endpoints on mux: /deltas, /deltas/full and
// /events under the given prefix ("" for the mux root). mux may be serving
// already: the redirect target is set before the first handler is.
func (h *Hub) Register(mux *http.ServeMux, prefix string) {
	h.fullPath = prefix + "/deltas/full"
	mux.HandleFunc(prefix+"/deltas", h.handleDeltas)
	mux.HandleFunc(prefix+"/deltas/full", h.handleFull)
	mux.HandleFunc(prefix+"/events", h.handleEvents)
}

// handleDeltas serves GET /deltas?since=C[&wait=2s][&zone=Z]: the CSV op
// lines of the delta segments strictly after cursor C, in cursor order. The
// response is byte-identical for equal (since, cursor) pairs, so the
// "<since>-<cursor>" ETag is strong. A cursor the ring cannot serve exactly
// (evicted, future, or mid-batch) redirects to the full list, whose
// X-Feed-Cursor restarts the cursor. zone=Z narrows every segment to the
// ops whose names the named zone hosts; cursors are shared across zones
// (batch bounds are global), and the ETag grows an @Z suffix because the
// body differs. format, when given, must be csv.
func (h *Hub) handleDeltas(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	h.mDeltaReqs.Add(1)
	q := r.URL.Query()
	if f := q.Get("format"); f != "" && f != "csv" {
		http.Error(w, "unsupported format (only csv)", http.StatusBadRequest)
		return
	}
	zoneName := q.Get("zone")
	if zoneName != "" {
		if _, ok := h.zoneSet(zoneName); !ok {
			http.Error(w, "unknown zone", http.StatusNotFound)
			return
		}
	}
	since, err := strconv.ParseUint(q.Get("since"), 10, 64)
	if err != nil {
		http.Redirect(w, r, h.fullPath, http.StatusSeeOther)
		return
	}

	if waitStr := q.Get("wait"); waitStr != "" {
		wait, err := time.ParseDuration(waitStr)
		if err != nil || wait < 0 {
			http.Error(w, "bad wait duration", http.StatusBadRequest)
			return
		}
		if wait > maxLongPoll {
			wait = maxLongPoll
		}
		h.waitForAdvance(r, since, wait)
	}

	resp, ok := h.buildDeltas(since, zoneName)
	if !ok {
		http.Redirect(w, r, h.fullPath, http.StatusSeeOther)
		return
	}
	w.Header()["X-Feed-Cursor"] = resp.curVal
	_ = resp.Write(w, r, csvContentType) // a failed write is the client's to notice
}

// waitForAdvance blocks until the hub cursor moves past since, the wait
// expires, or the request dies — the long-poll primitive.
func (h *Hub) waitForAdvance(r *http.Request, since uint64, wait time.Duration) {
	if wait <= 0 {
		return
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	for {
		ch := h.advanceSignal()
		if h.Cursor() > since {
			return
		}
		select {
		case <-ch:
		case <-timer.C:
			return
		case <-r.Context().Done():
			return
		case <-h.stop:
			return
		}
	}
}

// buildDeltas assembles (or fetches from the per-cursor cache) the /deltas
// response body for a since cursor, copying each segment's op lines out of
// its SSE frame. ok=false means the ring cannot serve this cursor and the caller
// should redirect to the full list. A non-empty zoneName keeps only the
// named zone's ops (the cursor still covers the segments it empties) and
// suffixes the ETag with @zone, since the bytes differ per zone.
func (h *Hub) buildDeltas(since uint64, zoneName string) (*cachedResp, bool) {
	key := deltaKey{since: since, zone: zoneName}
	var tlds map[model.TLD]bool
	if zoneName != "" {
		var ok bool
		if tlds, ok = h.zoneSet(zoneName); !ok {
			return nil, false
		}
	}
	h.ringMu.RLock()
	cur := h.cursor
	if c, ok := h.resp.Get(cur, key); ok {
		h.ringMu.RUnlock()
		return c, true
	}
	segs, ok := h.segmentsSinceLocked(since)
	if !ok {
		h.ringMu.RUnlock()
		return nil, false
	}
	n := 0
	for _, s := range segs {
		n += opLinesLen(s.opLines(), tlds)
	}
	body := make([]byte, 0, n)
	for _, s := range segs {
		body = appendOpLines(body, s.opLines(), tlds)
	}
	h.ringMu.RUnlock()
	return h.install(key, cur, strconv.FormatUint(since, 10)+"-"+strconv.FormatUint(cur, 10), body), true
}

// handleFull serves GET /deltas/full[?zone=Z]: the whole pending-delete
// list as name,day CSV sorted by (day, name), with X-Feed-Cursor naming the
// cursor the body is consistent with — the cursor a client starts deltas
// from. zone=Z narrows the list to the named zone's names.
func (h *Hub) handleFull(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	h.mFullReqs.Add(1)
	zoneName := r.URL.Query().Get("zone")
	if zoneName != "" {
		if _, ok := h.zoneSet(zoneName); !ok {
			http.Error(w, "unknown zone", http.StatusNotFound)
			return
		}
	}
	resp := h.buildFull(zoneName)
	hdr := w.Header()
	hdr["X-Feed-Full"] = feedFullVal
	hdr["X-Feed-Cursor"] = resp.curVal
	_ = resp.Write(w, r, csvContentType) // a failed write is the client's to notice
}

// buildFull renders (or fetches from the per-cursor cache) the full list,
// optionally narrowed to one zone's names.
func (h *Hub) buildFull(zoneName string) *cachedResp {
	key := deltaKey{full: true, zone: zoneName}
	if c, ok := h.resp.Get(h.Cursor(), key); ok {
		return c
	}
	var tlds map[model.TLD]bool
	if zoneName != "" {
		tlds, _ = h.zoneSet(zoneName)
	}
	items, cur := h.PendingItems()
	n := 0
	for _, it := range items {
		n += len(it.Name) + 12 // ",YYYY-MM-DD\n"
	}
	body := make([]byte, 0, n)
	for _, it := range items {
		if tlds != nil {
			if t, ok := model.TLDOf(it.Name); !ok || !tlds[t] {
				continue
			}
		}
		body = append(body, it.Name...)
		body = append(body, ',')
		body = it.Day.AppendTo(body)
		body = append(body, '\n')
	}
	return h.install(key, cur, "full-"+strconv.FormatUint(cur, 10), body)
}

// install caches body as key's answer at cursor cur under the strong ETag
// "<tag>[@zone]": a zone's body differs, so its validator must too.
func (h *Hub) install(key deltaKey, cur uint64, tag string, body []byte) *cachedResp {
	if key.zone != "" {
		tag += "@" + key.zone
	}
	c := &cachedResp{serve.NewBody(body, `"`+tag+`"`), []string{strconv.FormatUint(cur, 10)}}
	h.resp.Put(cur, key, c)
	return c
}

// handleEvents serves GET /events[?since=C]: a text/event-stream of delta
// frames. With since (or a Last-Event-ID header from an SSE auto-reconnect)
// the stream first replays the ring from C — or sends an explicit reset
// frame when the ring has moved on — then continues live. Every frame's
// bytes are the segment's pre-rendered SSE encoding, shared across all
// subscribers.
//
// Frames:
//
//	event: hello   data: <hub cursor at connect>
//	event: delta   data: <from> <to> <sentUnixNano> <nops>, then one data
//	               line per op (op,name,day)
//	event: resume  data: <cursor replay starts from> — precedes ring replay
//	               after a slow-consumer drop
//	event: reset   data: <new cursor> — ring cannot cover the gap; the
//	               client must refetch the full list and resume from there
func (h *Hub) handleEvents(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", "GET")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	h.mEventReqs.Add(1)

	var since uint64
	hasSince := false
	if v := r.URL.Query().Get("since"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			http.Error(w, "bad since cursor", http.StatusBadRequest)
			return
		}
		since, hasSince = n, true
	}
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.ParseUint(v, 10, 64); err == nil {
			since, hasSince = n, true
		}
	}

	hdr := w.Header()
	hdr.Set("Content-Type", "text/event-stream")
	hdr.Set("Cache-Control", "no-cache")
	hdr.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	// Register before reading the catch-up baseline: frames installed from
	// here on are queued, frames at or before the baseline are replayed, and
	// the to≤cursor filter drops the overlap — no window for silent loss.
	sub := &subscriber{notify: make(chan struct{}, 1)}
	remove := h.addSub(sub)
	defer remove()

	h.ringMu.RLock()
	cur := h.cursor
	var catchup []*segment
	covered := true
	if hasSince && since < cur {
		catchup, covered = h.segmentsSinceLocked(since)
		catchup = slices.Clone(catchup)
	}
	h.ringMu.RUnlock()

	if !hasSince || since > cur {
		sub.cursor = cur
	} else {
		sub.cursor = since
	}
	if err := writeFrame(w, "hello", cur); err != nil {
		return
	}
	if hasSince && since < cur {
		if covered {
			for _, s := range catchup {
				if _, err := w.Write(s.sse); err != nil {
					return
				}
				sub.cursor = s.to
			}
		} else {
			if err := writeFrame(w, "reset", cur); err != nil {
				return
			}
			sub.cursor = cur
			h.mResets.Add(1)
		}
	}
	fl.Flush()

	ctx := r.Context()
	for {
		select {
		case <-sub.notify:
		case <-ctx.Done():
			return
		case <-h.stop:
			return
		}
		sub.mu.Lock()
		frames := sub.queue
		sub.queue = nil
		dropped := sub.dropped
		sub.dropped = false
		sub.mu.Unlock()

		wrote := false
		if dropped {
			// Cursor-preserving catch-up: replay the ring from where this
			// subscriber actually is, or tell it to resync when the ring has
			// moved past its cursor. Either way the gap is explicit.
			h.ringMu.RLock()
			cur := h.cursor
			segs, ok := h.segmentsSinceLocked(sub.cursor)
			segs = slices.Clone(segs)
			h.ringMu.RUnlock()
			if ok {
				if err := writeFrame(w, "resume", sub.cursor); err != nil {
					return
				}
				for _, s := range segs {
					if _, err := w.Write(s.sse); err != nil {
						return
					}
					sub.cursor = s.to
				}
				h.mResumes.Add(1)
			} else {
				if err := writeFrame(w, "reset", cur); err != nil {
					return
				}
				sub.cursor = cur
				h.mResets.Add(1)
			}
			wrote = true
		}
		for _, s := range frames {
			if s.to <= sub.cursor {
				continue // already delivered via catch-up replay
			}
			if _, err := w.Write(s.sse); err != nil {
				return
			}
			sub.cursor = s.to
			h.fanLag.Record(time.Duration(time.Now().UnixNano() - s.at))
			wrote = true
		}
		if wrote {
			fl.Flush()
		}
	}
}

// writeFrame emits a single-data-line SSE frame (hello/resume/reset).
func writeFrame(w http.ResponseWriter, event string, cursor uint64) error {
	_, err := w.Write([]byte("event: " + event + "\ndata: " +
		strconv.FormatUint(cursor, 10) + "\n\n"))
	return err
}
