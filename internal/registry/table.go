package registry

import (
	"encoding/binary"
	"hash/maphash"
	"math"
)

// table is one shard's registration storage: the records themselves, in
// fixed-size chunks, and the index that finds one by name. A registration
// is addressed by its ref — its slot number — which is what the name index
// and the due buckets hold instead of pointers, so the garbage collector
// traces one pointer word per record (the name) and, for the index, one per
// directory entry — not per name.
//
// Validity invariant: a *record points into a chunk slot. Chunks never move
// and are never freed, so the pointer stays addressable, but del zeroes the
// slot and a later put reuses it for another registration. A *record (and
// its ref) is therefore valid only while the shard lock it was obtained
// under is held, and never after del of that slot; only model.Domain copies
// and name strings leave the package.
type table struct {
	// chunks hold the records; slot ref is chunks[ref>>chunkShift][ref&chunkMask].
	// Slots [0, next) have been handed out at least once; a slot whose
	// record has an empty name is free.
	chunks []*[chunkSize]record
	next   uint32
	free   []uint32 // purged slots, reused last-in first-out
	// soonest[c] is a lower bound on the stored expiry instants of chunk c's
	// active registrations: lowered whenever one is filed or has its expiry
	// written (noteExpiry), reset by the lifecycle's active pass over the
	// chunk (expiredIn), which skips a chunk whose bound is after now.
	// Accessed atomically: walkers reset it under the read lock.
	soonest []uint32

	// dir is the extendible-hashed name index: depth bits of a name's seeded
	// hash pick its entry, whose bucket holds the ref; a bucket of local
	// depth d fills the 1<<(depth-d) entries that agree on its d low bits.
	// Nil until the first put.
	dir   []*bucket
	depth uint8
	// seed is the store's hash seed, random per Store: registrars choose
	// the names, so the hash they collide under must not be predictable.
	seed maphash.Seed
}

// A bucket is an open-addressed run of slots, probed linearly from a name's
// home slot and wrapping at the end, that splits in two before it is more
// than 7/8 full — so a put re-indexes at most one bucket, never a shard. A
// slot is 5 bytes, a 7-bit tag (0: empty) beside the ref, so a hit reads
// one line; no hash is kept: the occupant's name decides a match, and a
// split or del re-hashes the names it moves. 1 074 slots fill the 5 376-byte
// size class; pointer-free, so the collector skips it.
type bucket struct {
	slots [bucketSlots][5]byte // tagOf(hash), then the ref little-endian
	n     uint16               // occupied slots
	depth uint8                // directory bits every name in it shares
}

const (
	bucketSlots = 1074
	bucketLimit = bucketSlots * 7 / 8
	dirShift    = 39 // the directory's bits start above home's and tag's
)

// A chunk is 1024 records — 32 KiB, an exact size class: large enough that
// chunk pointers and allocation calls are noise, small enough that a shard's
// half-empty last chunk stays under 1 % of a 100 k-name shard, and that the
// lifecycle's active pass skips most of the table between expiries.
const (
	chunkShift = 10
	chunkSize  = 1 << chunkShift
	chunkMask  = chunkSize - 1
)

// init readies an empty table.
func (t *table) init(seed maphash.Seed) { *t = table{seed: seed} }

// len is the number of live registrations.
func (t *table) len() int { return int(t.next) - len(t.free) }

func (t *table) rec(ref uint32) *record { return &t.chunks[ref>>chunkShift][ref&chunkMask] }

func (t *table) hash(name string) uint64 { return maphash.String(t.seed, name) }

// bucket is where hash h belongs: the directory takes bits 39 up, the home
// slot the low 32 (homeOf) and the tag bits 32–38 (tagOf).
func (t *table) bucket(h uint64) *bucket { return t.dir[h>>dirShift&(1<<t.depth-1)] }
func homeOf(h uint64) int                { return int(uint64(uint32(h)) * bucketSlots >> 32) }
func tagOf(h uint64) uint8               { return uint8(h>>32) | 0x80 }

// succ is the slot after i, wrapping.
func succ(i int) int { return (i + 1) % bucketSlots }

func (b *bucket) ref(i int) uint32 { return binary.LittleEndian.Uint32(b.slots[i][1:]) }

// get finds name's registration; r is nil when there is none.
func (t *table) get(name string) (r *record, ref uint32) { return t.find(name, t.hash(name)) }

// find is get with name's hash h already taken.
func (t *table) find(name string, h uint64) (r *record, ref uint32) {
	if t.dir == nil {
		return nil, 0
	}
	b, tag := t.bucket(h), tagOf(h)
	for i := homeOf(h); b.slots[i][0] != 0; i = succ(i) {
		if b.slots[i][0] == tag {
			if r := t.rec(b.ref(i)); r.name() == name {
				return r, b.ref(i)
			}
		}
	}
	return nil, 0
}

// put stores rec, its name's hash h and absence checked (find), in a free
// slot — the most recently freed one, else the next never-used one.
func (t *table) put(rec record, h uint64) (*record, uint32) {
	var ref uint32
	if last := len(t.free) - 1; last >= 0 {
		ref, t.free = t.free[last], t.free[:last]
	} else {
		if int(t.next>>chunkShift) == len(t.chunks) {
			t.chunks = append(t.chunks, new([chunkSize]record))
			t.soonest = append(t.soonest, math.MaxUint32)
		}
		ref = t.next
		t.next++
	}
	if t.dir == nil {
		t.dir = []*bucket{new(bucket)}
	}
	if t.bucket(h).n >= bucketLimit {
		t.split(h)
	}
	t.bucket(h).add(h, ref)
	r := t.rec(ref)
	*r = rec
	return r, ref
}

// add files ref under hash h in the first empty slot from its home.
func (b *bucket) add(h uint64, ref uint32) {
	i := homeOf(h)
	for b.slots[i][0] != 0 {
		i = succ(i)
	}
	b.slots[i][0] = tagOf(h)
	binary.LittleEndian.PutUint32(b.slots[i][1:], ref)
	b.n++
}

// split divides the bucket hash h belongs in by its next directory bit: it
// keeps the names whose bit is 0, and a new bucket takes the rest and the
// entries with that bit set; the directory doubles first if need be. Were
// every name on one side (a random seed makes that ≈ 2⁻⁹³⁸), that half would
// take the put over its limit and split again at the next.
func (t *table) split(h uint64) {
	b := t.bucket(h)
	if b.depth == t.depth {
		t.dir, t.depth = append(t.dir, t.dir...), t.depth+1
	}
	old := *b
	*b = bucket{depth: old.depth + 1}
	halves := [2]*bucket{b, {depth: b.depth}}
	for i := range old.slots {
		if ref := old.ref(i); old.slots[i][0] != 0 {
			nh := t.hash(t.rec(ref).name())
			halves[nh>>(dirShift+old.depth)&1].add(nh, ref)
		}
	}
	for i := int(h>>dirShift)&(1<<old.depth-1) | 1<<old.depth; i < len(t.dir); i += 2 << old.depth {
		t.dir[i] = halves[1]
	}
}

// del releases slot ref: un-indexes its name, zeroes the record and queues
// the slot for reuse. Later entries of the probe run shift back over the gap
// unless their home is in (gap, entry], cyclically: no tombstone is left.
func (t *table) del(ref uint32) {
	r := t.rec(ref)
	h := t.hash(r.name())
	b, i := t.bucket(h), homeOf(h)
	for b.ref(i) != ref {
		i = succ(i)
	}
	for j := succ(i); b.slots[j][0] != 0; j = succ(j) {
		k := homeOf(t.hash(t.rec(b.ref(j)).name()))
		if i < j && (k <= i || k > j) || j < i && k <= i && k > j {
			b.slots[i] = b.slots[j]
			i = j
		}
	}
	b.slots[i][0] = 0
	b.n--
	*r = record{}
	t.free = append(t.free, ref)
}

// each calls fn for every live registration in slot order — reproducible
// for equal operation histories from empty — until fn returns false, and
// reports whether it got through them all.
func (t *table) each(fn func(r *record, ref uint32) bool) bool {
	for ref := uint32(0); ref < t.next; ref++ {
		if r := t.rec(ref); r.np != nil && !fn(r, ref) {
			return false
		}
	}
	return true
}
