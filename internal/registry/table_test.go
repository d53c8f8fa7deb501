package registry

import (
	"fmt"
	"hash/maphash"
	"math/rand"
	"strconv"
	"sync"
	"testing"
	"unsafe"
)

// tableModel drives a table and the representation it replaced — a plain
// map from name to record — in lockstep, failing on the first disagreement.
type tableModel struct {
	t      *testing.T
	tab    table
	model  map[string]record
	nextID uint32
}

func newTableModel(t *testing.T, seed maphash.Seed) *tableModel {
	m := &tableModel{t: t, model: make(map[string]record)}
	m.tab.init(seed)
	return m
}

// get looks name up on both sides.
func (m *tableModel) get(name string) {
	m.t.Helper()
	r, ref := m.tab.get(name)
	want, ok := m.model[name]
	switch {
	case !ok && r != nil:
		m.t.Fatalf("get(%q) = %+v, model has none", name, *r)
	case ok && r == nil:
		m.t.Fatalf("get(%q) misses, model has %+v", name, want)
	case ok && (*r != want || m.tab.rec(ref) != r):
		m.t.Fatalf("get(%q) = %+v at ref %d, model has %+v", name, *r, ref, want)
	}
}

// put stores name when it is absent, with a fresh ID so that a re-put is
// told apart from the registration it replaces, and checks slot reuse: the
// most recently freed slot is taken before the slab grows.
func (m *tableModel) put(name string) {
	m.t.Helper()
	if _, ok := m.model[name]; ok {
		m.get(name)
		return
	}
	m.nextID++
	rec := record{id: m.nextID, registrar: int32(m.nextID % 7), meta: 3}
	rec.setName(name)
	wantRef, grown := m.tab.next, m.tab.next+1
	if n := len(m.tab.free); n > 0 {
		wantRef, grown = m.tab.free[n-1], m.tab.next
	}
	r, ref := m.tab.put(rec, m.tab.hash(rec.name()))
	if ref != wantRef || m.tab.next != grown || *r != rec {
		m.t.Fatalf("put(%q) took ref %d (slab %d), want ref %d (slab %d)", name, ref, m.tab.next, wantRef, grown)
	}
	m.model[name] = rec
	m.get(name)
}

// del removes name when it is present and checks the slot comes back zeroed.
func (m *tableModel) del(name string) {
	m.t.Helper()
	r, ref := m.tab.get(name)
	if _, ok := m.model[name]; !ok {
		m.get(name)
		return
	}
	if r == nil {
		m.t.Fatalf("del(%q): table misses a name the model holds", name)
	}
	m.tab.del(ref)
	delete(m.model, name)
	if *r != (record{}) {
		m.t.Fatalf("del(%q) left %+v in slot %d", name, *r, ref)
	}
	m.get(name)
}

// check compares the whole of both sides: size, the index's shape, every
// name findable, each visiting exactly the live set once, in ascending slot
// order.
func (m *tableModel) check() {
	m.t.Helper()
	if m.tab.len() != len(m.model) {
		m.t.Fatalf("len = %d, model holds %d", m.tab.len(), len(m.model))
	}
	if err := checkIndex(&m.tab, len(m.model)); err != nil {
		m.t.Fatal(err)
	}
	for name := range m.model {
		m.get(name)
	}
	seen := make(map[string]bool, len(m.model))
	last := -1
	m.tab.each(func(r *record, ref uint32) bool {
		if want, ok := m.model[r.name()]; !ok || *r != want || seen[r.name()] || int(ref) <= last || m.tab.rec(ref) != r {
			m.t.Fatalf("each visited %+v at ref %d (after ref %d, seen before: %v)", *r, ref, last, seen[r.name()])
		}
		seen[r.name()], last = true, int(ref)
		return true
	})
	if len(seen) != len(m.model) {
		m.t.Fatalf("each visited %d registrations of %d", len(seen), len(m.model))
	}
}

// bucketState is a bucket as one put found it.
type bucketState struct {
	b     *bucket
	n     uint16
	depth uint8
}

// buckets appends t's buckets to dst, each once, in the order of their
// first directory entries — which a split or a doubling never moves.
func buckets(dst []bucketState, t *table) []bucketState {
	for i, b := range t.dir {
		if i < 1<<b.depth {
			dst = append(dst, bucketState{b, b.n, b.depth})
		}
	}
	return dst
}

// checkIndex holds the name index to its shape: a directory of 1<<depth
// entries, each bucket at every entry that agrees with it on its local
// depth's low bits and nowhere else, its count right, no fuller than 7/8,
// and every entry where a get for its name finds it — in the bucket of its
// hash, with no empty slot between its home and itself.
func checkIndex(t *table, live int) error {
	if t.dir == nil {
		if live != 0 {
			return fmt.Errorf("no directory for %d registrations", live)
		}
		return nil
	}
	if len(t.dir) != 1<<t.depth {
		return fmt.Errorf("directory has %d entries at depth %d", len(t.dir), t.depth)
	}
	for i, b := range t.dir {
		if b.depth > t.depth || t.dir[i&(1<<b.depth-1)] != b {
			return fmt.Errorf("entry %d holds a depth-%d bucket that is not at entry %d", i, b.depth, i&(1<<b.depth-1))
		}
	}
	indexed := 0
	for _, bs := range buckets(nil, t) {
		b, n := bs.b, 0
		for i, s := range b.slots {
			if s[0] == 0 {
				continue
			}
			n++
			name := t.rec(b.ref(i)).name()
			h := t.hash(name)
			if tagOf(h) != s[0] || t.bucket(h) != b {
				return fmt.Errorf("%q indexed in slot %d of a depth-%d bucket, not where its hash files it", name, i, b.depth)
			}
			for j := homeOf(h); j != i; j = succ(j) {
				if b.slots[j][0] == 0 {
					return fmt.Errorf("%q in slot %d is cut off from its home %d by empty slot %d", name, i, homeOf(h), j)
				}
			}
		}
		if n != int(b.n) || n > bucketLimit {
			return fmt.Errorf("a depth-%d bucket holds %d entries, counts %d, limit %d", b.depth, n, b.n, bucketLimit)
		}
		indexed += n
	}
	if indexed != live {
		return fmt.Errorf("name index holds %d entries for %d registrations", indexed, live)
	}
	return nil
}

// collidingNames returns n names that share a home slot under seed, three
// slots before a bucket's end: filed in one bucket they make one probe run
// that wraps. With 7 tag bits, some of them share a tag too.
func collidingNames(seed maphash.Seed, n int) []string {
	const home = bucketSlots - 3
	names := make([]string, 0, n)
	for i := 0; len(names) < n; i++ {
		name := "collide-" + strconv.Itoa(i) + ".com"
		if homeOf(maphash.String(seed, name)) == home {
			names = append(names, name)
		}
	}
	return names
}

// fuzzSeed and fuzzNames are FuzzTableOps' name pool, found once per process.
var (
	fuzzSeed  = maphash.MakeSeed()
	fuzzNames = sync.OnceValue(func() []string { return collidingNames(fuzzSeed, 256) })
)

// TestTableMatchesMap: 200 k random put/get/del/re-put operations agree
// with a map — over names whose hashes spread (hash), over names that all
// share one home slot (collide: one probe run that wraps, deletes shifting
// back across the wrap, tags matching on different names), and over a pool
// large enough that the population crosses many splits (split).
func TestTableMatchesMap(t *testing.T) {
	for _, tc := range []struct {
		name    string
		pool    int
		collide bool
	}{{"hash", 6000, false}, {"collide", 600, true}, {"split", 60_000, false}} {
		t.Run(tc.name, func(t *testing.T) {
			const ops = 200_000
			m := newTableModel(t, maphash.MakeSeed())
			var names []string
			if tc.collide {
				names = collidingNames(m.tab.seed, tc.pool)
				tags := make(map[uint8]bool)
				for _, name := range names {
					tags[tagOf(m.tab.hash(name))] = true
				}
				if len(tags) == len(names) {
					t.Fatalf("%d colliding names and no two share a tag", len(names))
				}
				// Names that share a home stay findable when the first
				// goes, and when another takes its slot and the gap.
				for _, name := range names[:3] {
					m.put(name)
				}
				m.del(names[0])
				m.check()
				m.put(names[3])
				m.del(names[1])
				m.put(names[0])
				m.check()
			} else {
				for i := 0; i < tc.pool; i++ {
					names = append(names, "model-"+strconv.Itoa(i)+".com")
				}
			}
			rng := rand.New(rand.NewSource(15))
			peak := 0
			for i := 0; i < ops; i++ {
				name := names[rng.Intn(len(names))]
				switch rng.Intn(5) {
				case 0, 1:
					m.put(name)
				case 2:
					m.del(name)
				default:
					m.get(name)
				}
				peak = max(peak, len(m.model))
				if i%20_000 == 0 {
					m.check()
				}
			}
			m.check()
			if len(m.tab.chunks) < 2 && !tc.collide {
				t.Fatalf("%d chunks: the population never crossed a chunk boundary", len(m.tab.chunks))
			}
			switch n := len(buckets(nil, &m.tab)); {
			case tc.collide && n != 1:
				t.Fatalf("colliding names spread over %d buckets, want one", n)
			case tc.name == "split" && n < 16:
				t.Fatalf("%d buckets after a peak of %d names: the population crossed too few splits", n, peak)
			}
			// each stops when told to.
			visits := 0
			if done := m.tab.each(func(*record, uint32) bool { visits++; return visits < 3 }); done || visits != 3 {
				t.Fatalf("each made %d visits after being stopped at 3 (ran to the end: %v)", visits, done)
			}
		})
	}
}

// TestTableGrowthIsBounded pins what keeps growth off the write path: over
// 300 k puts, each put adds at most one bucket and changes at most one of
// the others — the one it filed into or split — leaving every other bucket
// where it was with what it held; no bucket is ever more than 7/8 full; the
// directory always has 1<<depth entries.
func TestTableGrowthIsBounded(t *testing.T) {
	const puts = 300_000
	var tab table
	tab.init(maphash.MakeSeed())
	var prev, cur []bucketState
	splits := 0
	for i := 0; i < puts; i++ {
		var rec record
		rec.setName("grow-" + strconv.Itoa(i) + ".com")
		tab.put(rec, tab.hash(rec.name()))
		if len(tab.dir) != 1<<tab.depth {
			t.Fatalf("put %d: directory has %d entries at depth %d", i, len(tab.dir), tab.depth)
		}
		cur = buckets(cur[:0], &tab)
		// Walk both in step: every old bucket is still there, in order, and
		// at most one new one is between them.
		added, changed, grew, j := 0, 0, 0, 0
		for _, c := range cur {
			if c.n > bucketLimit {
				t.Fatalf("put %d: a depth-%d bucket holds %d entries, limit %d", i, c.depth, c.n, bucketLimit)
			}
			grew += int(c.n)
			if j < len(prev) && prev[j].b == c.b {
				if c != prev[j] {
					changed++
				}
				grew -= int(prev[j].n)
				j++
			} else {
				added++
			}
		}
		if j != len(prev) || added > 1 || changed > 1 || grew != 1 {
			t.Fatalf("put %d: %d of %d buckets kept, %d added, %d changed, %d entries gained", i, j, len(prev), added, changed, grew)
		}
		if added == 1 && len(prev) > 0 {
			splits++
		}
		prev, cur = cur, prev
	}
	if err := checkIndex(&tab, puts); err != nil {
		t.Fatal(err)
	}
	if splits < 256 {
		t.Fatalf("%d splits over %d puts", splits, puts)
	}
}

// TestBucketFillsItsSizeClass: a bucket fits the 5 376-byte size class it
// is allocated from with no room left for another slot.
func TestBucketFillsItsSizeClass(t *testing.T) {
	const class, slot = 5376, unsafe.Sizeof([5]byte{})
	if size := unsafe.Sizeof(bucket{}); size > class || size+slot <= class {
		t.Fatalf("bucket of %d slots is %d bytes; the size class is %d", bucketSlots, size, class)
	}
}

// FuzzTableOps runs a byte-encoded operation stream — two bytes per
// operation: kind, name — through the model harness, over 256 names that
// share one home slot.
func FuzzTableOps(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 3, 1, 1, 0, 4, 2, 2, 1, 3, 0, 1})
	f.Add([]byte{0, 0, 1, 0, 0, 0, 1, 0, 2, 0})
	f.Fuzz(func(t *testing.T, stream []byte) {
		names := fuzzNames()
		m := newTableModel(t, fuzzSeed)
		for ; len(stream) >= 2; stream = stream[2:] {
			name := names[stream[1]]
			switch stream[0] % 3 {
			case 0:
				m.put(name)
			case 1:
				m.del(name)
			default:
				m.get(name)
			}
		}
		m.check()
	})
}
