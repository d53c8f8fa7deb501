package registry

import (
	"cmp"
	"math"
	"slices"
	"sync/atomic"

	"dropzero/internal/model"
	"dropzero/internal/simtime"
)

// dueDay is the bucket key of r's current state, one with due buckets, as
// a day number (days since 1970-01-01): the day its window opened — the
// expiry day for autoRenew, the last-updated day for redemption — or the
// scheduled delete day for pendingDelete. Each is a field of the record, so
// the index needs no lifecycle parameters: a Lifecycle looks back by its own
// window lengths when it walks the buckets (Tick).
func dueDay(r *record) uint32 {
	switch r.status() {
	case model.StatusAutoRenew:
		return dayKey(simtime.UnixOf(r.expiry) / daySecs)
	case model.StatusRedemption:
		return dayKey(simtime.UnixOf(r.updated) / daySecs)
	default:
		return uint32(r.deleteDay)
	}
}

// dayKey is day number n as a bucket key, saturating at the key type's ends:
// the zero time.Time (year 1) files under 0, which keeps it — like every
// other saturated key — no later than its true day.
func dayKey(n int64) uint32 { return uint32(min(max(n, 0), math.MaxUint32)) }

// The due index serves the two kinds of traffic a registration's next
// transition makes. An active registration has one transition left, at its
// expiry, about once a year: it is in no bucket, and the lifecycle's active
// pass walks the table a chunk at a time, skipping every chunk whose
// expiry bound (table.soonest) is after now. The short-lived states —
// autoRenew, redemption, pendingDelete — feed BuildQueue, PendingDeletions
// and the published lists, and keep per-day buckets of refs. Neither costs
// the record a byte.

// firstDueState is the first state with buckets; dueStates counts them.
const (
	firstDueState = model.StatusAutoRenew
	dueStates     = int(model.StatusDeleted - firstDueState)
)

// bucketed reports whether st keeps due buckets.
func bucketed(st model.Status) bool { return st >= firstDueState && st < model.StatusDeleted }

// dueIndex is one short-lived state's time-bucketed secondary index: every
// live registration in that state, bucketed by its dueDay. It holds the
// non-empty buckets in ascending day order, so "everything filed through
// day D" costs O(due work), not O(store). Bucket order depends on the
// history of adds and removes, so every consumer imposes its own
// deterministic sort.
type dueIndex []dueBucket

// dueBucket is one day's registrations as table refs. live counts its
// members: the registrations in the index's state filed under its day.
// refs holds each member's ref once, beside stale refs — of registrations
// removed since, purged or moved on — that remove leaves in place, since
// it cannot find them without a scan. No ref is in refs twice: add revives
// a stale copy instead of appending another. So refs holds members only
// exactly when len(refs) == live, and only then can a walk skip the
// membership check.
type dueBucket struct {
	day  uint32
	live int
	refs []uint32
}

// search is where day's bucket is or belongs in ix.
func (ix dueIndex) search(day uint32) (int, bool) {
	return slices.BinarySearchFunc(ix, day, func(b dueBucket, day uint32) int { return cmp.Compare(b.day, day) })
}

// add files ref under day. The record already holds its new state.
func (ix *dueIndex) add(day, ref uint32) {
	i, found := ix.search(day)
	if !found {
		*ix = slices.Insert(*ix, i, dueBucket{day: day})
	}
	b := &(*ix)[i]
	if len(b.refs) == b.live || !slices.Contains(b.refs, ref) {
		b.refs = append(b.refs, ref)
	}
	b.live++
}

// find is day's bucket, nil when it is empty.
func (ix dueIndex) find(day uint32) *dueBucket {
	if i, found := ix.search(day); found {
		return &ix[i]
	}
	return nil
}

// member reports whether r is a member of state st's bucket for day: live,
// in st, and filed under that day.
func member(r *record, st model.Status, day uint32) bool {
	return r.np != nil && r.status() == st && dueDay(r) == day
}

// dueDrop removes the registration in slot ref, a member of state st's
// bucket for day that is about to change or go, from that bucket. It frees
// the bucket at its last member, and compacts it once more than half of its
// refs are stale; ref, whose record still holds its old state, is dropped
// with them. The caller holds sh's write lock.
func (sh *shard) dueDrop(st model.Status, day, ref uint32) {
	ix := &sh.due[st-firstDueState]
	i, found := ix.search(day)
	if !found {
		return
	}
	b := &(*ix)[i]
	if b.live--; b.live == 0 {
		*ix = slices.Delete(*ix, i, i+1)
		return
	}
	if 2*(len(b.refs)-b.live) <= len(b.refs) {
		return
	}
	kept := b.refs[:0]
	for _, other := range b.refs {
		if other != ref && member(sh.tab.rec(other), st, day) {
			kept = append(kept, other)
		}
	}
	b.refs = kept
}

// members calls fn for every member of b, state st's bucket, once. fn must
// not add or remove index entries.
func (sh *shard) members(st model.Status, b *dueBucket, fn func(*record)) {
	stale := len(b.refs) != b.live
	for _, ref := range b.refs {
		if r := sh.tab.rec(ref); !stale || member(r, st, b.day) {
			fn(r)
		}
	}
}

// dueThrough calls fn for every registration in state st whose bucket day
// is on or before limit. fn must not add or remove index entries.
func (sh *shard) dueThrough(st model.Status, limit simtime.Day, fn func(*record)) {
	ix := sh.due[st-firstDueState]
	end := dayKey(limit.Number())
	for i := 0; i < len(ix) && ix[i].day <= end; i++ {
		sh.members(st, &ix[i], fn)
	}
}

// dueBetween calls fn for every registration in state st whose bucket day
// is in [from, to), in ascending day order; the bucket of registrations with
// no day (key 0) is in no window. fn must not add or remove index entries.
func (sh *shard) dueBetween(st model.Status, from, to simtime.Day, fn func(*record)) {
	ix := sh.due[st-firstDueState]
	end := dayKey(to.Number())
	i, _ := ix.search(max(dayKey(from.Number()), 1))
	for ; i < len(ix) && ix[i].day < end; i++ {
		sh.members(st, &ix[i], fn)
	}
}

// dueOn calls fn for every registration in state st whose bucket day is
// day. fn must not add or remove index entries.
func (sh *shard) dueOn(st model.Status, day uint32, fn func(*record)) {
	if b := sh.due[st-firstDueState].find(day); b != nil {
		sh.members(st, b, fn)
	}
}

// noteExpiry lowers slot ref's chunk bound to expiry, a stored instant, when
// an active registration is filed there or has its expiry written. The
// caller holds the shard's write lock.
func (t *table) noteExpiry(ref, expiry uint32) {
	p := &t.soonest[ref>>chunkShift]
	if expiry < atomic.LoadUint32(p) {
		atomic.StoreUint32(p, expiry)
	}
}

// expiredIn calls fn for every active registration of chunk c whose expiry
// is at or before now (Unix seconds), unless the chunk's bound says there
// is none, and resets the bound to the earliest expiry the walk saw. The
// caller holds the shard's lock in either mode: concurrent walkers store the
// same bound, atomically.
func (t *table) expiredIn(c int, now int64, fn func(*record)) {
	p := &t.soonest[c]
	if simtime.UnixOf(atomic.LoadUint32(p)) > now {
		return
	}
	soonest := uint32(math.MaxUint32)
	chunk := t.chunks[c]
	for j := range chunk[:min(chunkSize, int(t.next)-c<<chunkShift)] {
		r := &chunk[j]
		if r.np == nil || r.status() != model.StatusActive {
			continue
		}
		soonest = min(soonest, r.expiry)
		if simtime.UnixOf(r.expiry) <= now {
			fn(r)
		}
	}
	atomic.StoreUint32(p, soonest)
}
