// Package feed derives a real-time change feed from the registry store's
// mutation stream and serves it to many concurrent consumers. It is the
// third consumer of the WAL record type after the journal and replication:
// a Hub taps the same registry.Journal hook, folds each committed mutation
// into a materialised pending-delete set, and keeps a bounded ring of
// per-batch delta segments ("added / removed / re-registered since cursor
// C") whose SSE frame is rendered exactly once — the same []byte is written
// to every subscriber, so fan-out cost is O(subscribers) writes, not
// O(subscribers) encodes.
//
// Consumers pick their freshness/cost point:
//
//   - GET /deltas?since=C — pull: the CSV op lines of the segments after
//     cursor C, rendered from their ops on a cache miss; strong
//     "<from>-<to>" ETag, Content-Length up front; add wait=2s for
//     long-poll. A since below the ring floor redirects to the full list.
//   - GET /deltas/full — the whole pending-delete set plus an X-Feed-Cursor
//     header naming the cursor it is consistent with; the join point.
//   - GET /events?since=C — push: an SSE stream of the same segment frames,
//     with per-subscriber bounded queues. A slow consumer is dropped to
//     catch-up, never silently skipped: the hub replays the ring from the
//     subscriber's cursor, or tells it to resync with an explicit reset
//     frame when the ring has moved on.
//
// Lock ordering (documented in DESIGN.md §6): Hub.Append takes only bufMu,
// a leaf — it is called inside the store's mutating critical sections and
// must never touch store, journal, ring or subscriber locks. The broadcaster
// goroutine takes ringMu, then a subscriber-shard mutex, then a subscriber
// mutex, and never holds any of them across connection I/O. No feed code
// calls back into the store except PrimeFromStore, which runs before the
// hub is attached.
package feed

import (
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dropzero/internal/gencache"
	"dropzero/internal/loadgen"
	"dropzero/internal/model"
	"dropzero/internal/registry"
	"dropzero/internal/serve"
	"dropzero/internal/simtime"
	"dropzero/internal/zone"
)

// OpKind is one delta operation on the pending-delete list. The values are
// the wire encoding (first CSV field of a delta line).
type OpKind byte

const (
	// OpAdd: the name entered (or changed its day within) the
	// pending-delete list; the Day field carries its scheduled delete day.
	OpAdd OpKind = '+'
	// OpRemove: the name left the list without being purged (restored from
	// pendingDelete, renewed, transferred).
	OpRemove OpKind = '-'
	// OpPurge: the name was deleted at the Drop — it left the list because
	// the registration ceased to exist.
	OpPurge OpKind = '!'
	// OpRereg: a previously purged name was created again — the paper's
	// re-registration event. It does not change the pending-delete list.
	OpRereg OpKind = '*'
)

// Op is one decoded delta operation. Day is meaningful only for OpAdd.
type Op struct {
	Kind OpKind
	Name string
	Day  simtime.Day
}

// Item is one pending-delete entry in a full list or a mirror window.
type Item struct {
	Name string
	Day  simtime.Day
}

// Options configures a Hub. The zero value gets sensible defaults.
type Options struct {
	// RingBytes bounds the segment ring (the SSE frame bytes it retains).
	// Default 4 MiB. The ring decides how stale a cursor can be and still
	// catch up incrementally.
	RingBytes int
	// QueueLen bounds each subscriber's pending-frame queue; a subscriber
	// whose queue fills is dropped to catch-up. Default 64.
	QueueLen int
}

// subShards is the subscriber-registry shard count (a power of two), so
// broadcast does not serialise on one lock at 10k+ connections.
const subShards = 16

func (o Options) withDefaults() Options {
	if o.RingBytes <= 0 {
		o.RingBytes = 4 << 20
	}
	if o.QueueLen <= 0 {
		o.QueueLen = 64
	}
	return o
}

// rec is one buffered mutation awaiting the broadcaster, stamped with its
// append instant (the fan-out latency clock starts here).
type rec struct {
	m  registry.Mutation
	at int64 // UnixNano
}

// segment is one broadcast batch: the delta ops derived from a contiguous
// run of mutation records (from..to]. sse is the one rendering every
// subscriber and ring replay shares; /deltas renders its CSV lines from
// opList, filtered when a zone is asked for.
type segment struct {
	from, to uint64
	at       int64 // earliest op-producing record's append instant
	opList   []Op
	sse      []byte // complete SSE frame (id/event/data lines + blank)
}

func (s *segment) size() int { return len(s.sse) }

// subscriber is one /events connection's state. The HTTP handler goroutine
// owns cursor and writes; the broadcaster only appends to queue / flags
// dropped under mu.
type subscriber struct {
	mu      sync.Mutex
	queue   []*segment
	dropped bool
	notify  chan struct{} // cap 1: coalesced wakeups

	cursor uint64 // last seq delivered; handler-goroutine only
}

type subShard struct {
	mu  sync.Mutex
	set map[*subscriber]struct{}
}

// deltaKey keys the response cache: one entry per (since, full, zone) at
// the hub's current cursor generation. zone is "" for the unscoped feed;
// zone-scoped responses differ in body and ETag, so they get their own
// entries.
type deltaKey struct {
	since uint64
	full  bool
	zone  string
}

// cachedResp is a rendered /deltas or /deltas/full answer and its
// X-Feed-Cursor value.
type cachedResp struct {
	serve.Body
	curVal []string
}

// Hub consumes the mutation stream and serves the delta/event feed.
// Create with NewHub, attach it as the store's journal — alone, or behind a
// WAL through Tap, as internal/node's commit stack does — and Close when
// done. Hub implements registry.Journal.
type Hub struct {
	opt Options

	// Append side. bufMu is a leaf lock held only long enough to buffer one
	// record; Append never blocks on the broadcaster.
	bufMu sync.Mutex
	buf   []rec
	seqA  atomic.Uint64 // records appended (last assigned sequence number)
	wake  chan struct{}

	// Derived state: the materialised pending-delete set, the purge memory
	// for re-registration detection, and the segment ring. ringMu write side
	// is the broadcaster only.
	ringMu  sync.RWMutex
	pending map[string]simtime.Day
	purged  map[string]uint64 // name → purge seq
	cursor  uint64            // last seq folded into pending
	evicted uint64            // highest seq covered by an evicted segment
	ring    []*segment
	ringSz  int
	advCh   chan struct{} // closed and replaced on every cursor advance
	// The ingest counters advance with the cursor, under ringMu, so a
	// Metrics snapshot always has Records == Cursor − the primed start.
	mRecords, mBatches, mOps uint64

	resp *gencache.Cache[deltaKey, *cachedResp]

	// fullPath is the redirect target for unservable delta cursors; set by
	// Register (single-threaded setup, before traffic).
	fullPath string

	// zones maps zone name → TLD membership for the zone= delta filter;
	// installed by SetZones under ringMu. nil means no zone filtering is
	// offered (the pre-federation hub).
	zones map[string]map[model.TLD]bool

	subs    [subShards]subShard
	subPick atomic.Uint64

	stop chan struct{}
	done chan struct{}

	mSubs      atomic.Int64
	mSubsTotal atomic.Uint64
	mSlowDrops atomic.Uint64
	mResumes   atomic.Uint64
	mResets    atomic.Uint64
	mDeltaReqs atomic.Uint64
	mFullReqs  atomic.Uint64
	mEventReqs atomic.Uint64
	fanLag     loadgen.Hist
}

// NewHub returns a running Hub.
func NewHub(opt Options) *Hub {
	opt = opt.withDefaults()
	h := &Hub{
		opt:      opt,
		wake:     make(chan struct{}, 1),
		pending:  make(map[string]simtime.Day),
		purged:   make(map[string]uint64),
		advCh:    make(chan struct{}),
		resp:     gencache.New[deltaKey, *cachedResp](64),
		fullPath: "/deltas/full",
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	for i := range h.subs {
		h.subs[i].set = make(map[*subscriber]struct{})
	}
	go h.run()
	return h
}

// Close stops the broadcaster after a final drain and wakes every
// subscriber writer so connections can wind down.
func (h *Hub) Close() {
	select {
	case <-h.stop:
		return // already closed
	default:
	}
	close(h.stop)
	<-h.done
}

// Append implements registry.Journal: buffer the record and its receipt
// instant, poke the broadcaster. Called inside the store's mutating critical
// section, so it must stay fast and lock-leaf; there is never a durability
// wait.
func (h *Hub) Append(m registry.Mutation) func() error {
	h.bufMu.Lock()
	h.buf = append(h.buf, rec{m: m, at: time.Now().UnixNano()})
	h.seqA.Add(1)
	h.bufMu.Unlock()
	select {
	case h.wake <- struct{}{}:
	default:
	}
	return nil
}

// Tap multiplexes the store's mutation stream into a durability journal and
// a feed hub: the WAL keeps its ordering and durability-wait contract, the
// hub sees every record. Inner may be nil (feed without a WAL).
type Tap struct {
	Inner registry.Journal
	Hub   *Hub
}

// Append implements registry.Journal.
func (t Tap) Append(m registry.Mutation) (wait func() error) {
	if t.Inner != nil {
		wait = t.Inner.Append(m)
	}
	t.Hub.Append(m)
	return wait
}

// SetZones installs the zone table the zone= delta filter consults — call
// with the hosting store's Zones() at setup (it is safe at runtime too; the
// table swap happens under the ring lock). Without it every zone= request
// is rejected as unknown and the hub behaves exactly like the
// pre-federation one.
func (h *Hub) SetZones(zs []zone.Config) {
	m := make(map[string]map[model.TLD]bool, len(zs))
	for _, z := range zs {
		m[z.Name] = z.TLDSet()
	}
	h.ringMu.Lock()
	h.zones = m
	h.ringMu.Unlock()
}

// zoneSet resolves a zone= parameter to its TLD membership set.
func (h *Hub) zoneSet(name string) (map[model.TLD]bool, bool) {
	h.ringMu.RLock()
	defer h.ringMu.RUnlock()
	set, ok := h.zones[name]
	return set, ok
}

// opInZone reports whether a delta op's name belongs to the zone with TLD
// membership tlds.
func opInZone(op Op, tlds map[model.TLD]bool) bool {
	t, ok := model.TLDOf(op.Name)
	return ok && tlds[t]
}

// PrimeFromStore loads the store's current pending-delete set as the hub's
// cursor-0 state. Call it after recovery and before the hub is attached (or
// before the store receives traffic): mutations committed after priming
// stream in as deltas on top of it.
func (h *Hub) PrimeFromStore(store *registry.Store) {
	var items []Item
	store.Each(func(d *model.Domain) bool {
		if d.Status == model.StatusPendingDelete {
			items = append(items, Item{Name: d.Name, Day: d.DeleteDay})
		}
		return true
	})
	h.ringMu.Lock()
	for _, it := range items {
		h.pending[it.Name] = it.Day
	}
	h.ringMu.Unlock()
}

// run is the broadcaster: one wakeup per buffered burst, regardless of how
// many records the burst holds — the coalescing that keeps a Drop-second's
// thousands of purges from costing thousands of per-subscriber wakeups.
func (h *Hub) run() {
	defer close(h.done)
	for {
		select {
		case <-h.stop:
			h.drain() // deterministic final flush for tests and shutdown
			h.notifyAll()
			return
		case <-h.wake:
			h.drain()
		}
	}
}

// drain swaps the append buffer out and ingests it as one batch.
func (h *Hub) drain() {
	h.bufMu.Lock()
	batch := h.buf
	h.buf = nil
	h.bufMu.Unlock()
	if len(batch) == 0 {
		return
	}
	h.ingest(batch)
}

// maxPurgeMemory bounds the purge map used for re-registration detection;
// beyond it the oldest purges are forgotten (a later create of such a name
// is then an ordinary create, not a flagged re-registration).
const maxPurgeMemory = 1 << 20

// ingest folds one batch of mutation records into the pending set, renders
// the resulting delta segment exactly once and broadcasts it.
func (h *Hub) ingest(batch []rec) {
	h.ringMu.Lock()
	from := h.cursor + 1
	to := h.cursor + uint64(len(batch))
	var (
		ops []Op
		at  int64
	)
	for i := range batch {
		n := len(ops)
		ops = h.deriveLocked(&batch[i].m, h.cursor+uint64(i)+1, ops)
		if len(ops) > n && at == 0 {
			at = batch[i].at
		}
	}
	h.cursor = to
	h.mBatches++
	h.mRecords += uint64(len(batch))
	h.mOps += uint64(len(ops))
	if len(h.purged) > maxPurgeMemory {
		floor := h.cursor - maxPurgeMemory
		for name, seq := range h.purged {
			if seq < floor {
				delete(h.purged, name)
			}
		}
	}
	var seg *segment
	if len(ops) > 0 {
		seg = renderSegment(from, to, at, ops)
		h.ring = append(h.ring, seg)
		h.ringSz += seg.size()
		for h.ringSz > h.opt.RingBytes && len(h.ring) > 1 {
			old := h.ring[0]
			h.ring = h.ring[1:]
			h.ringSz -= old.size()
			h.evicted = old.to
		}
	}
	close(h.advCh)
	h.advCh = make(chan struct{})
	h.ringMu.Unlock()

	if seg != nil {
		h.broadcast(seg)
	}
}

// deriveLocked folds one mutation into the pending set and appends the delta
// ops it implies. Only the broadcaster calls it, with ringMu held. The cases
// mirror exactly what each store mutator can do to a domain's
// pending-delete membership.
func (h *Hub) deriveLocked(m *registry.Mutation, seq uint64, ops []Op) []Op {
	switch m.Kind {
	case registry.MutSetState:
		if m.Status == model.StatusPendingDelete {
			if day, ok := h.pending[m.Name]; !ok || day != m.DeleteDay {
				h.pending[m.Name] = m.DeleteDay
				ops = append(ops, Op{Kind: OpAdd, Name: m.Name, Day: m.DeleteDay})
			}
		} else if _, ok := h.pending[m.Name]; ok {
			delete(h.pending, m.Name)
			ops = append(ops, Op{Kind: OpRemove, Name: m.Name})
		}
	case registry.MutRenew, registry.MutTransfer:
		// Both force StatusActive; a pendingDelete name leaves the list.
		if _, ok := h.pending[m.Name]; ok {
			delete(h.pending, m.Name)
			ops = append(ops, Op{Kind: OpRemove, Name: m.Name})
		}
	case registry.MutPurge:
		if _, ok := h.pending[m.Name]; ok {
			delete(h.pending, m.Name)
			ops = append(ops, Op{Kind: OpPurge, Name: m.Name})
		}
		h.purged[m.Name] = seq
	case registry.MutCreate:
		if _, ok := h.purged[m.Name]; ok {
			delete(h.purged, m.Name)
			ops = append(ops, Op{Kind: OpRereg, Name: m.Name})
		}
	case registry.MutSeed:
		if m.Status == model.StatusPendingDelete {
			h.pending[m.Name] = m.DeleteDay
			ops = append(ops, Op{Kind: OpAdd, Name: m.Name, Day: m.DeleteDay})
		}
	}
	return ops
}

// renderSegment encodes a batch's SSE frame once. Nothing here is
// per-subscriber: broadcast shares these exact bytes.
func renderSegment(from, to uint64, at int64, ops []Op) *segment {
	var hdr [128]byte // fits the longest header: four 20-digit numbers
	head := append(hdr[:0], "id: "...)
	head = strconv.AppendUint(head, to, 10)
	head = append(head, "\nevent: delta\ndata: "...)
	head = strconv.AppendUint(head, from, 10)
	head = append(head, ' ')
	head = strconv.AppendUint(head, to, 10)
	head = append(head, ' ')
	head = strconv.AppendInt(head, at, 10)
	head = append(head, ' ')
	head = strconv.AppendInt(head, int64(len(ops)), 10)
	head = append(head, '\n')

	n := len(head) + 1
	for _, op := range ops {
		n += len("data: ") + opLineLen(op)
	}
	b := append(make([]byte, 0, n), head...)
	for _, op := range ops {
		b = append(b, "data: "...)
		b = appendOpLine(b, op)
	}
	b = append(b, '\n')
	return &segment{from: from, to: to, at: at, opList: ops, sse: b}
}

// opLineLen is the length of op's CSV line for any four-digit-year day.
func opLineLen(op Op) int {
	if op.Kind == OpAdd {
		return len(op.Name) + 14 // "+," name ",YYYY-MM-DD\n"
	}
	return len(op.Name) + 4
}

// appendOpLine renders one delta CSV line: op,name,day (day only for adds).
// Domain names never need CSV quoting.
func appendOpLine(b []byte, op Op) []byte {
	b = append(b, byte(op.Kind), ',')
	b = append(b, op.Name...)
	b = append(b, ',')
	if op.Kind == OpAdd {
		b = op.Day.AppendTo(b)
	}
	return append(b, '\n')
}

// broadcast enqueues seg on every subscriber: one pointer append and one
// non-blocking notify per subscriber, shard by shard. A full queue drops the
// subscriber to catch-up instead of blocking the broadcaster or silently
// skipping frames.
func (h *Hub) broadcast(seg *segment) {
	for i := range h.subs {
		sh := &h.subs[i]
		sh.mu.Lock()
		for sub := range sh.set {
			sub.mu.Lock()
			if sub.dropped {
				// Already in catch-up; the ring covers this segment too.
			} else if len(sub.queue) >= h.opt.QueueLen {
				sub.queue = nil
				sub.dropped = true
				h.mSlowDrops.Add(1)
			} else {
				sub.queue = append(sub.queue, seg)
			}
			sub.mu.Unlock()
			select {
			case sub.notify <- struct{}{}:
			default:
			}
		}
		sh.mu.Unlock()
	}
}

// notifyAll wakes every subscriber writer (shutdown path).
func (h *Hub) notifyAll() {
	for i := range h.subs {
		sh := &h.subs[i]
		sh.mu.Lock()
		for sub := range sh.set {
			select {
			case sub.notify <- struct{}{}:
			default:
			}
		}
		sh.mu.Unlock()
	}
}

// addSub registers a subscriber on a shard picked round-robin; the returned
// function deregisters it.
func (h *Hub) addSub(sub *subscriber) func() {
	sh := &h.subs[h.subPick.Add(1)&(subShards-1)]
	sh.mu.Lock()
	sh.set[sub] = struct{}{}
	sh.mu.Unlock()
	h.mSubs.Add(1)
	h.mSubsTotal.Add(1)
	return func() {
		sh.mu.Lock()
		delete(sh.set, sub)
		sh.mu.Unlock()
		h.mSubs.Add(-1)
	}
}

// Cursor returns the hub's current cursor: the last mutation record folded
// into the pending set.
func (h *Hub) Cursor() uint64 {
	h.ringMu.RLock()
	defer h.ringMu.RUnlock()
	return h.cursor
}

// Quiesce blocks until every record appended before the call has been
// folded into the pending set — the boundary differential tests and
// shutdown checks compare state at.
func (h *Hub) Quiesce() {
	target := h.seqA.Load()
	for {
		h.ringMu.RLock()
		cur := h.cursor
		ch := h.advCh
		h.ringMu.RUnlock()
		if cur >= target {
			return
		}
		select {
		case <-ch:
		case <-h.done:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// segmentsSinceLocked returns the retained segments strictly after cursor c.
// ok=false when the ring cannot serve c exactly: c predates the evicted
// floor, is beyond the hub cursor, or falls mid-segment (only batch
// boundaries are valid cursors). Caller holds ringMu (read or write).
func (h *Hub) segmentsSinceLocked(c uint64) ([]*segment, bool) {
	if c > h.cursor || c < h.evicted {
		return nil, false
	}
	i := sort.Search(len(h.ring), func(i int) bool { return h.ring[i].from > c })
	if i > 0 && h.ring[i-1].to > c {
		return nil, false // c inside ring[i-1]'s batch
	}
	return h.ring[i:], true
}

// advanceSignal returns a channel closed at the next cursor advance.
func (h *Hub) advanceSignal() <-chan struct{} {
	h.ringMu.RLock()
	defer h.ringMu.RUnlock()
	return h.advCh
}

// PendingItems returns the hub's materialised pending-delete set sorted by
// (day, name), with the cursor it is consistent with.
func (h *Hub) PendingItems() ([]Item, uint64) {
	h.ringMu.RLock()
	items := make([]Item, 0, len(h.pending))
	for name, day := range h.pending {
		items = append(items, Item{Name: name, Day: day})
	}
	cur := h.cursor
	h.ringMu.RUnlock()
	sortItems(items)
	return items, cur
}

// sortItems orders items by (day, name) — the order every list render in
// the system uses, so bodies are byte-comparable.
func sortItems(items []Item) {
	sort.Slice(items, func(a, b int) bool {
		if c := items[a].Day.Compare(items[b].Day); c != 0 {
			return c < 0
		}
		return items[a].Name < items[b].Name
	})
}

// Metrics is a snapshot of the hub's activity counters.
type Metrics struct {
	Cursor  uint64
	Records uint64 // mutation records consumed
	Batches uint64 // coalesced broadcaster flushes (wakeups, not records)
	Ops     uint64 // delta operations derived

	Subscribers      int64  // currently connected /events streams
	SubscribersTotal uint64 // streams ever accepted
	SlowDrops        uint64 // queue overflows (subscriber moved to catch-up)
	Resumes          uint64 // catch-ups served from the ring
	Resets           uint64 // catch-ups that fell off the ring (full resync)

	DeltaRequests uint64
	FullRequests  uint64
	EventRequests uint64

	RingSegments int
	RingBytes    int
	Pending      int // names currently pending delete
	Cache        gencache.Counters
}

// Metrics returns the hub's counters.
func (h *Hub) Metrics() Metrics {
	h.ringMu.RLock()
	ringSegs, ringBytes, pending := len(h.ring), h.ringSz, len(h.pending)
	cursor, records, batches, ops := h.cursor, h.mRecords, h.mBatches, h.mOps
	h.ringMu.RUnlock()
	return Metrics{
		Cursor:           cursor,
		Records:          records,
		Batches:          batches,
		Ops:              ops,
		Subscribers:      h.mSubs.Load(),
		SubscribersTotal: h.mSubsTotal.Load(),
		SlowDrops:        h.mSlowDrops.Load(),
		Resumes:          h.mResumes.Load(),
		Resets:           h.mResets.Load(),
		DeltaRequests:    h.mDeltaReqs.Load(),
		FullRequests:     h.mFullReqs.Load(),
		EventRequests:    h.mEventReqs.Load(),
		RingSegments:     ringSegs,
		RingBytes:        ringBytes,
		Pending:          pending,
		Cache:            h.resp.Stats(),
	}
}

// FanoutLag returns the server-side fan-out latency distribution: mutation
// append instant to the frame being written on a subscriber connection,
// one sample per (segment, subscriber) delivery.
func (h *Hub) FanoutLag() loadgen.Result {
	return h.fanLag.Snapshot()
}
