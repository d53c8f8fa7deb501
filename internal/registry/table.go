package registry

import "hash/maphash"

// table is one shard's registration storage: the records themselves, in
// fixed-size chunks, and the index that finds one by name. A registration
// is addressed by its ref — its slot number — which is what the name index
// and the due buckets (dueIndex's heads, the records' links) hold instead of
// pointers, so the garbage collector traces one pointer word per record (the
// name) and nothing else in the shard.
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

	// byHash maps the low 32 bits of the seeded name hash to a slot; the
	// occupant's name decides whether it is the one asked for. Pointer-free
	// keys and values: the runtime map grows incrementally and the collector
	// skips its buckets. The few names whose hash is already taken live in
	// overflow, created on first use and consulted only while non-empty.
	byHash   map[uint32]uint32
	overflow map[string]uint32
	// seed is the store's hash seed, random per Store: registrars choose
	// the names, so the hash they collide under must not be predictable.
	seed maphash.Seed
	// hashMask truncates the hash; all ones outside the table's own tests,
	// which narrow it to force names into overflow.
	hashMask uint32
}

// A chunk is 1024 records — 40 KiB, five pages: large enough that chunk pointers and
// allocation calls are noise, small enough that a shard's half-empty last
// chunk stays under 1 % of a 100 k-name shard.
const (
	chunkShift = 10
	chunkSize  = 1 << chunkShift
	chunkMask  = chunkSize - 1
)

// init readies an empty table.
func (t *table) init(seed maphash.Seed) {
	*t = table{seed: seed, hashMask: ^uint32(0), byHash: make(map[uint32]uint32)}
}

// len is the number of live registrations.
func (t *table) len() int { return int(t.next) - len(t.free) }

func (t *table) rec(ref uint32) *record { return &t.chunks[ref>>chunkShift][ref&chunkMask] }

func (t *table) hash(name string) uint32 {
	return uint32(maphash.String(t.seed, name)) & t.hashMask
}

// get finds name's registration; r is nil when there is none.
func (t *table) get(name string) (r *record, ref uint32) {
	if ref, ok := t.byHash[t.hash(name)]; ok {
		if r := t.rec(ref); r.name() == name {
			return r, ref
		}
	}
	if len(t.overflow) != 0 {
		if ref, ok := t.overflow[name]; ok {
			return t.rec(ref), ref
		}
	}
	return nil, 0
}

// put stores rec, whose name the caller has checked is absent (get), in a
// free slot — the most recently freed one, else the next never-used one.
func (t *table) put(rec record) (*record, uint32) {
	var ref uint32
	if last := len(t.free) - 1; last >= 0 {
		ref, t.free = t.free[last], t.free[:last]
	} else {
		if int(t.next>>chunkShift) == len(t.chunks) {
			t.chunks = append(t.chunks, new([chunkSize]record))
		}
		ref = t.next
		t.next++
	}
	h := t.hash(rec.name())
	if _, taken := t.byHash[h]; !taken {
		t.byHash[h] = ref
	} else {
		if t.overflow == nil {
			t.overflow = make(map[string]uint32)
		}
		t.overflow[rec.name()] = ref
	}
	r := t.rec(ref)
	*r = rec
	return r, ref
}

// del releases slot ref: un-indexes its name, zeroes the record and queues
// the slot for reuse. Names in overflow that share the hash stay there;
// get falls through to them once byHash misses.
func (t *table) del(ref uint32) {
	r := t.rec(ref)
	h := t.hash(r.name())
	if cur, ok := t.byHash[h]; ok && cur == ref {
		delete(t.byHash, h)
	} else {
		delete(t.overflow, r.name())
	}
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
