package registry

import (
	"hash/maphash"
	"math/rand"
	"strconv"
	"testing"
)

// tableModel drives a table and the representation it replaced — a plain
// map from name to record — in lockstep, failing on the first disagreement.
type tableModel struct {
	t      *testing.T
	tab    table
	model  map[string]record
	nextID uint32
}

// newTableModel builds the pair. hashMask narrows the table's hash so that
// most names collide and live in overflow; ^0 leaves the real hash.
func newTableModel(t *testing.T, hashMask uint32) *tableModel {
	m := &tableModel{t: t, model: make(map[string]record)}
	m.tab.init(maphash.MakeSeed())
	m.tab.hashMask = hashMask
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
	r, ref := m.tab.put(rec)
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

// check compares the whole of both sides: size, every name findable, each
// visiting exactly the live set once, in ascending slot order.
func (m *tableModel) check() {
	m.t.Helper()
	if m.tab.len() != len(m.model) {
		m.t.Fatalf("len = %d, model holds %d", m.tab.len(), len(m.model))
	}
	if indexed := len(m.tab.byHash) + len(m.tab.overflow); indexed != len(m.model) {
		m.t.Fatalf("name index holds %d entries for %d registrations", indexed, len(m.model))
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

// TestTableMatchesMap: 200 k random put/get/del/re-put operations agree
// with a map — once with the real hash, where overflow stays all but empty,
// and once with 4 hash bits, where overflow carries almost every name.
func TestTableMatchesMap(t *testing.T) {
	for _, tc := range []struct {
		name     string
		hashMask uint32
	}{{"hash32", ^uint32(0)}, {"hash4", 0xf}} {
		t.Run(tc.name, func(t *testing.T) {
			const ops, pool = 200_000, 6000
			m := newTableModel(t, tc.hashMask)
			rng := rand.New(rand.NewSource(15))
			peakOverflow := 0
			for i := 0; i < ops; i++ {
				name := "model-" + strconv.Itoa(rng.Intn(pool)) + ".com"
				switch rng.Intn(5) {
				case 0, 1:
					m.put(name)
				case 2:
					m.del(name)
				default:
					m.get(name)
				}
				peakOverflow = max(peakOverflow, len(m.tab.overflow))
				if i%20_000 == 0 {
					m.check()
				}
			}
			m.check()
			if len(m.tab.chunks) < 2 {
				t.Fatalf("%d chunks: the population never crossed a chunk boundary", len(m.tab.chunks))
			}
			if tc.hashMask == 0xf && peakOverflow < pool/4 {
				t.Fatalf("overflow peaked at %d names; the 4-bit hash should push most of %d there", peakOverflow, pool)
			}
			// each stops when told to.
			visits := 0
			if done := m.tab.each(func(*record, uint32) bool { visits++; return visits < 3 }); done || visits != 3 {
				t.Fatalf("each made %d visits after being stopped at 3 (ran to the end: %v)", visits, done)
			}
		})
	}
}

// TestTableOverflowOutlivesOccupant: names that share a hash with a byHash
// occupant stay findable when the occupant goes, and when another name then
// takes its place.
func TestTableOverflowOutlivesOccupant(t *testing.T) {
	m := newTableModel(t, 0) // one hash value: the first name owns byHash
	for _, name := range []string{"first.com", "second.com", "third.com"} {
		m.put(name)
	}
	if len(m.tab.byHash) != 1 || len(m.tab.overflow) != 2 {
		t.Fatalf("byHash %d, overflow %d; want 1 and 2", len(m.tab.byHash), len(m.tab.overflow))
	}
	m.del("first.com")
	m.check()
	m.put("fourth.com") // takes the vacated byHash entry and first.com's slot
	if len(m.tab.byHash) != 1 {
		t.Fatalf("byHash holds %d entries after the re-put, want 1", len(m.tab.byHash))
	}
	m.del("second.com")
	m.put("first.com")
	m.check()
}

// FuzzTableOps runs a byte-encoded operation stream — two bytes per
// operation: kind, name — through the model harness with the 4-bit hash.
func FuzzTableOps(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 3, 1, 1, 0, 4, 2, 2, 1, 3, 0, 1})
	f.Add([]byte{0, 0, 1, 0, 0, 0, 1, 0, 2, 0})
	f.Fuzz(func(t *testing.T, stream []byte) {
		m := newTableModel(t, 0xf)
		for ; len(stream) >= 2; stream = stream[2:] {
			name := "fuzz-" + strconv.Itoa(int(stream[1])) + ".net"
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
