package registry

import (
	"math"
	"slices"

	"dropzero/internal/model"
	"dropzero/internal/simtime"
)

// duePolicy computes the UTC day a registration's next lifecycle transition
// becomes due — the key its due-index bucket is filed under. The zero value
// is the safe default used before a Lifecycle is attached: it anchors
// autoRenew and redemption domains at the *start* of their grace and
// redemption windows (grace and redemption lengths of zero), so buckets can
// only be earlier than the true due day, never later. An early bucket merely
// re-examines the domain on sweeps until it really is due; a late bucket
// would delay transitions, which is why NewLifecycle and SpreadGraceDays
// install the exact policy derived from the active LifecycleConfig.
type duePolicy struct {
	redemptionDays   int
	graceDays        map[int]int
	defaultGraceDays int
	// perTLD overrides the day-length parameters for TLDs operated by
	// non-default zones (each zone runs its own lifecycle clock). nil — the
	// pre-federation common case — means every TLD uses the base values
	// above, and dueDay takes the exact legacy path. Entries have nil
	// perTLD themselves (one level of zoning, no recursion).
	perTLD map[model.TLD]*duePolicy
}

// dueDay returns the bucket key for r's current state, a day number (days
// since 1970-01-01): expiry day for active, grace-end day for autoRenew,
// redemption-end day for redemption and the scheduled delete day for
// pendingDelete. UTC has no DST, so the calendar's AddDate(0, 0, g) is +g
// here and no time.Time is built. The parameters come from the zone
// operating r's TLD.
func (p duePolicy) dueDay(r *record) uint32 {
	if p.perTLD != nil {
		if zp, ok := p.perTLD[r.tld()]; ok {
			return zp.dueDay(r)
		}
	}
	switch r.status() {
	case model.StatusActive:
		return dayKey(simtime.UnixOf(r.expiry) / daySecs)
	case model.StatusAutoRenew:
		g := p.defaultGraceDays
		if v, ok := p.graceDays[int(r.registrar)]; ok {
			g = v
		}
		return dayKey(simtime.UnixOf(r.expiry)/daySecs + int64(g))
	case model.StatusRedemption:
		return dayKey(simtime.UnixOf(r.updated)/daySecs + int64(p.redemptionDays))
	default:
		return uint32(r.deleteDay)
	}
}

// dayKey is day number n as a bucket key, saturating at the key type's ends:
// the zero time.Time (year 1) files under 0, which keeps it — like every
// other saturated key — no later than its true day.
func dayKey(n int64) uint32 { return uint32(min(max(n, 0), math.MaxUint32)) }

// dueIndex is one lifecycle state's time-bucketed secondary index: every
// live registration in that state, bucketed by due day number. A bucket is a
// doubly linked list threaded through its records (record.prev, record.next:
// table refs plus one, 0 for none), so the index itself holds one head per
// non-empty day and nothing per registration; add pushes at the front and
// remove is an O(1) unlink. A registration in no bucket has zero links.
// Bucket-internal order depends on the history of adds and removes, so every
// consumer imposes its own deterministic sort.
// days mirrors the non-empty bucket keys in ascending order, which is what
// makes "walk everything due through day D" O(due work) instead of
// O(store).
type dueIndex struct {
	heads map[uint32]uint32 // day → first ref+1
	days  []uint32
}

// add files t's slot ref under day, at the front of its bucket.
func (ix *dueIndex) add(day, ref uint32, t *table) {
	head, ok := ix.heads[day]
	if ok {
		t.rec(head - 1).prev = ref + 1
	} else {
		if ix.heads == nil {
			ix.heads = make(map[uint32]uint32)
		}
		if i, found := slices.BinarySearch(ix.days, day); !found {
			ix.days = slices.Insert(ix.days, i, day)
		}
	}
	r := t.rec(ref)
	r.prev, r.next = 0, head
	ix.heads[day] = ref + 1
}

// remove unlinks t's slot ref from day's bucket and zeroes its links; a
// record that is neither linked nor day's head is left alone.
func (ix *dueIndex) remove(day, ref uint32, t *table) {
	r := t.rec(ref)
	switch {
	case r.prev != 0:
		t.rec(r.prev - 1).next = r.next
	case ix.heads[day] != ref+1:
		return
	case r.next != 0:
		ix.heads[day] = r.next
	default:
		delete(ix.heads, day)
		if i, found := slices.BinarySearch(ix.days, day); found {
			ix.days = slices.Delete(ix.days, i, i+1)
		}
	}
	if r.next != 0 {
		t.rec(r.next - 1).prev = r.prev
	}
	r.prev, r.next = 0, 0
}

// bucket calls fn for every registration filed under day. fn must not add
// or remove index entries.
func (ix *dueIndex) bucket(day uint32, t *table, fn func(*record)) {
	for ref := ix.heads[day]; ref != 0; {
		r := t.rec(ref - 1)
		ref = r.next
		fn(r)
	}
}

// through calls fn for every registration whose bucket day is on or before
// limit. fn must not add or remove index entries.
func (ix *dueIndex) through(limit simtime.Day, t *table, fn func(*record)) {
	end := dayKey(limit.Number())
	for _, day := range ix.days {
		if day > end {
			return
		}
		ix.bucket(day, t, fn)
	}
}

// eachBucket calls fn for every registration whose bucket day is in
// [from, to), in ascending day order; the bucket of registrations with no day
// (key 0) is in no window. fn must not add or remove index entries.
func (ix *dueIndex) eachBucket(from, to simtime.Day, t *table, fn func(*record)) {
	end := dayKey(to.Number())
	i, _ := slices.BinarySearch(ix.days, max(dayKey(from.Number()), 1))
	for ; i < len(ix.days) && ix.days[i] < end; i++ {
		ix.bucket(ix.days[i], t, fn)
	}
}
