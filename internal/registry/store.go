// Package registry implements the Verisign-like registry substrate: an
// in-memory domain database with first-come-first-served creation, the
// post-expiration lifecycle, and the daily Drop process that deletes
// pending-delete domains in a deterministic order.
//
// The paper's measurement model only relies on properties of the real
// registry that this package reproduces faithfully: second-precision
// Created/Updated/Expiry timestamps, strictly increasing domain IDs, a
// deletion order keyed on (Updated, ID) across .com and .net combined, and
// deletions paced over roughly an hour starting at 19:00 UTC.
package registry

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dropzero/internal/model"
	"dropzero/internal/names"
	"dropzero/internal/simtime"
)

// Sentinel errors returned by Store operations. Callers (the EPP server in
// particular) branch on these to map them to protocol result codes.
var (
	ErrExists           = errors.New("registry: object exists")
	ErrNotFound         = errors.New("registry: object does not exist")
	ErrBadName          = errors.New("registry: invalid domain name")
	ErrUnknownTLD       = errors.New("registry: TLD not operated by this registry")
	ErrUnknownRegistrar = errors.New("registry: unknown registrar")
	ErrNotPendingDelete = errors.New("registry: domain is not in pendingDelete")
	ErrWrongRegistrar   = errors.New("registry: domain sponsored by another registrar")
	ErrBadAuthInfo      = errors.New("registry: authorization information invalid")
	ErrStatusProhibits  = errors.New("registry: object status prohibits operation")
)

// Observer receives registry lifecycle events. Implementations must not
// call back into the Store synchronously from the handler if they take their
// own locks that Store methods can contend on; the EPP server's poll queue
// is the canonical consumer.
type Observer interface {
	// DomainPurged fires when a Drop deletion removes a registration;
	// registrarID is the sponsor that lost the name.
	DomainPurged(ev model.DeletionEvent, registrarID int)
	// DomainTransitioned fires on lifecycle state changes.
	DomainTransitioned(name string, registrarID int, from, to model.Status)
	// DomainTransferred fires when a registration changes sponsor; the
	// losing registrar is the natural poll-message recipient.
	DomainTransferred(name string, losingID, gainingID int)
}

// shard is one lock domain of the store. Every registration lives in exactly
// one shard, chosen by hashing its name, and everything a single-domain
// operation needs — the record table, the transfer codes, the due-day indexes
// and status tallies — is resident in that shard, guarded by that shard's
// lock. The EPP hot path (Check/Info/Create during the Drop second)
// therefore serialises only against operations on names that hash to the
// same shard, not against the whole registry.
type shard struct {
	mu  sync.RWMutex
	tab table // live registrations: the records and their name index
	// authStored holds the transfer codes that cannot be recomputed from
	// their record (authStored state): restored codes that match neither
	// derivation. nil until one shows up.
	authStored map[string]string

	// due is the time-bucketed secondary index: per short-lived lifecycle
	// state (due[st-firstDueState]), this shard's live registrations
	// bucketed by the UTC day their window opened (dueDay). Maintained
	// incrementally by every mutator; the daily sweeps merge the per-shard
	// buckets in canonical order. Active registrations are found through
	// the table's chunk bounds instead (dueindex.go).
	due [dueStates]dueIndex
	// statusCount tallies this shard's live registrations per state.
	statusCount [model.StatusDeleted + 1]int
}

// dueAdd indexes r (slot ref) under its current state — in its due bucket,
// or, when active, under its chunk's expiry bound — and bumps the status
// counter. The caller holds the shard's write lock; every live domain is
// indexed exactly once, in the shard its name hashes to.
func (sh *shard) dueAdd(r *record, ref uint32) {
	st := r.status()
	if int(st) < len(sh.statusCount) {
		sh.statusCount[st]++
	}
	switch {
	case st == model.StatusActive:
		sh.tab.noteExpiry(ref, r.expiry)
	case bucketed(st):
		sh.due[st-firstDueState].add(dueDay(r), ref)
	}
}

// dueRemove un-indexes r. It must run *before* any field that feeds dueDay
// (status, expiry, updated, deleteDay) is mutated, or the removal would look
// in the wrong bucket. An active registration leaves its chunk bound as it
// is: a bound only has to be low enough.
func (sh *shard) dueRemove(r *record, ref uint32) {
	st := r.status()
	if int(st) < len(sh.statusCount) {
		sh.statusCount[st]--
	}
	if bucketed(st) {
		sh.dueDrop(st, dueDay(r), ref)
	}
}

// refile replaces r (slot ref) with next and moves its index entry. A
// registration that stays in the same bucket — a touch of a pendingDelete
// name, say — keeps its entry. The caller holds the shard's write lock.
func (sh *shard) refile(r *record, ref uint32, next record) {
	if st := r.status(); st == next.status() && bucketed(st) && dueDay(r) == dueDay(&next) {
		*r = next
		return
	}
	sh.dueRemove(r, ref)
	*r = next
	sh.dueAdd(r, ref)
}

// Store is the registry database. All methods are safe for concurrent use.
//
// Internally the store is sharded by domain-name hash: single-domain
// operations (the EPP Create/Check/Info hot path, RDAP/WHOIS lookups) take
// exactly one shard lock, while cross-shard sweeps (PendingDeletions, the
// due-index visitors, Each, Count, StatusCounts) visit the shards one at a
// time and merge in the canonical orders the consumers sort into. The shard
// count is fixed at construction (NewStoreWithShards); NewStore derives it
// from GOMAXPROCS. One shard reproduces the classic single-lock store.
//
// Lock-ordering rule: at most one shard lock is ever held at a time, and the
// deletion-archive lock may be taken while holding a shard lock but never
// the reverse. Multi-shard readers release shard i before locking shard
// i+1, so there is no lock-order cycle anywhere in the store. The single
// exception is ReadSnapshot, which read-locks regMu, then every shard in
// ascending index order, then the zone table; that still nests cleanly
// because no path holds a shard lock while acquiring regMu or another
// shard's lock.
type Store struct {
	clock simtime.Clock

	// gen counts committed mutations of publicly observable state. Every
	// successful mutator bumps it exactly once, inside its shard's write-lock
	// critical section; failed operations leave it untouched. Response caches
	// in the serving layers (RDAP, WHOIS, dropscope) key rendered bytes by
	// this counter: a cached body is valid exactly while Generation() still
	// returns the value it was rendered under. The counter stays a single
	// global atomic — not per-shard — so gencache keys and HTTP ETags are
	// oblivious to the shard layout. Readable lock-free via Generation().
	gen atomic.Uint64

	// nextID is the global object-ID allocator: the last ID handed out.
	// A live create reserves the next one (reserveID) in applyLocked, *after*
	// every other refusal has passed, so failed creates never consume an ID
	// and single-threaded drives hand out exactly the same IDs at any shard
	// count. A record holds 32 bits of ID, so the allocator stops at 2³²−1.
	nextID atomic.Uint64

	// observer is the installed event consumer (pointer-to-interface so nil
	// can be stored atomically). commit loads it inside the critical section
	// and delivers after unlocking.
	observer atomic.Pointer[Observer]

	// journal is the attached write-ahead journal (pointer-to-interface, like
	// observer). Live mutations append their Mutation record inside the
	// critical section — after the in-memory change, before the generation
	// bump — and run the returned durability wait after unlocking. See
	// journal.go.
	journal atomic.Pointer[Journal]

	// shards has power-of-two length; mask routes a name hash to its shard.
	shards []shard
	mask   uint64

	// registrars is every accreditation sorted by IANA ID, changed only
	// under regMu and read by Registrar without a lock (registrarList).
	regMu      sync.RWMutex
	registrars atomic.Pointer[registrarList]

	// deletions is the ground-truth archive of Drop deletions, per day.
	// Guarded by its own mutex: purge appends while holding the purged
	// name's shard lock (shard → delMu, never the reverse).
	delMu     sync.Mutex
	deletions map[simtime.Day][]model.DeletionEvent

	// zoneTab is the zone registry: which TLDs this store operates, under
	// which lifecycle and drop policy (zones.go). Its mutex is a leaf lock
	// like delMu.
	zoneTab zoneTable
}

// registrarList is one array of accreditations sorted by IANA ID: the first
// n are listed, the slots past them are room for later adds. A listed slot
// never changes, so a reader that loads n reads the slots below it without
// a lock; an add that sorts after every listed ID fills the next slot and
// then stores the larger n. Every other add — an insert before the end, a
// replacement, or an append without room — publishes a new list.
type registrarList struct {
	rs []model.Registrar // full capacity
	n  atomic.Int64
}

// listed is the accreditations l lists.
func (l *registrarList) listed() []model.Registrar { return l.rs[:l.n.Load()] }

// noRegistrars is every new store's list: it has no room, so the first add
// publishes a list of the store's own.
var noRegistrars registrarList

// MaxShards caps the shard count; beyond this the per-shard maps are so
// sparsely populated that cross-shard sweeps pay pure overhead.
const MaxShards = 256

// normalizeShardCount maps the constructor knob to the actual shard count:
// values ≤ 0 derive the count from GOMAXPROCS (the lock parallelism the
// hardware can actually use), anything else is rounded up to the next power
// of two so the hash can route with a mask, and the result is clamped to
// [1, MaxShards].
func normalizeShardCount(n int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	p := 1
	for p < n && p < MaxShards {
		p <<= 1
	}
	return p
}

// shardOf routes a domain name to its shard (FNV-1a over the name, masked).
// The hash is fixed for the life of the store: a registration never changes
// shards, whatever lifecycle state it is in.
func (s *Store) shardOf(name string) *shard {
	return &s.shards[s.shardIndex(name)]
}

// shardIndex is shardOf as an index, for callers that group work by shard
// (groupByShard) rather than locking one.
func (s *Store) shardIndex(name string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	return h & s.mask
}

// groupByShard counting-sorts the indexes 0..n-1 by the shard name(i) routes
// to: order[start[si]:start[si+1]] are shard si's indexes, ascending.
func (s *Store) groupByShard(n int, name func(int) string) (order []int32, start []int) {
	start = make([]int, len(s.shards)+1)
	for i := 0; i < n; i++ {
		start[s.shardIndex(name(i))+1]++
	}
	for si := range s.shards {
		start[si+1] += start[si]
	}
	order = make([]int32, n)
	next := slices.Clone(start[:len(s.shards)])
	for i := 0; i < n; i++ {
		si := s.shardIndex(name(i))
		order[next[si]] = int32(i)
		next[si]++
	}
	return order, start
}

// ShardCount reports how many shards the store was built with.
func (s *Store) ShardCount() int { return len(s.shards) }

// Generation returns the store's mutation counter without taking any lock.
// It increases by (at least) one for every committed mutation of observable
// state — domain creation, transfer, touch, renewal, lifecycle transition,
// purge, registrar accreditation — and never decreases or repeats.
//
// Cache discipline: read the generation, render the response, then read the
// generation again; install the body into a cache only when the two reads
// match. The discipline survives sharding because every bump happens inside
// the mutating shard's write-lock critical section: a mutation that commits
// before the first generation read has released no lock the render could
// have slipped past (the render's read lock on that shard waits it out), and
// one that commits afterwards makes the second read differ, so the body is
// dropped instead of installed. Serve a cached body only while Generation()
// still equals the generation it was installed under.
func (s *Store) Generation() uint64 { return s.gen.Load() }

// bumpGen records a committed mutation. Callers hold the write lock of the
// shard (or registrar table) whose state the mutation changed.
func (s *Store) bumpGen() { s.gen.Add(1) }

// NewStore returns an empty Store reading time from clock, with the shard
// count derived from GOMAXPROCS.
func NewStore(clock simtime.Clock) *Store { return NewStoreWithShards(clock, 0) }

// NewStoreWithShards returns an empty Store with an explicit shard count:
// 0 derives the count from GOMAXPROCS, 1 reproduces the classic single-lock
// store, other values are rounded up to the next power of two (clamped to
// MaxShards). The shard count never changes a store's observable behaviour —
// only how much lock parallelism concurrent callers get — and the
// differential tests pin outputs byte-identical across shard counts.
func NewStoreWithShards(clock simtime.Clock, shards int) *Store {
	n := normalizeShardCount(shards)
	s := &Store{
		clock:     clock,
		shards:    make([]shard, n),
		mask:      uint64(n - 1),
		deletions: make(map[simtime.Day][]model.DeletionEvent),
	}
	s.registrars.Store(&noRegistrars)
	// One seed for the whole store; see table.seed.
	seed := maphash.MakeSeed()
	for i := range s.shards {
		s.shards[i].tab.init(seed)
	}
	s.zoneTab.init()
	return s
}

// SetObserver installs the event consumer; pass nil to remove it. Events
// are delivered synchronously, after the store's own state change commits.
func (s *Store) SetObserver(o Observer) {
	if o == nil {
		s.observer.Store(nil)
		return
	}
	s.observer.Store(&o)
}

// loadObserver returns the installed observer, or nil.
func (s *Store) loadObserver() Observer {
	if p := s.observer.Load(); p != nil {
		return *p
	}
	return nil
}

// AddRegistrar registers an accreditation. Creating or updating domains under
// an unknown IANA ID fails. Journal durability errors are not reported here
// (the signature predates journaling); they resurface on the journal itself.
func (s *Store) AddRegistrar(r model.Registrar) {
	_ = waitJournal(s.addRegistrar(r, true))
}

// addRegistrar installs r, AddRegistrar's commit and replay's alike; a live
// one is journaled, and its durability wait returned.
func (s *Store) addRegistrar(r model.Registrar, live bool) (wait func() error) {
	s.regMu.Lock()
	defer s.regMu.Unlock()
	s.addRegistrarsLocked(r)
	if live {
		wait = s.appendJournal(&Mutation{Kind: MutAddRegistrar, Registrar: r})
	}
	s.bumpGen()
	return wait
}

// Registrar looks up an accreditation by IANA ID.
func (s *Store) Registrar(ianaID int) (model.Registrar, bool) {
	rs := s.registrars.Load().listed()
	if len(rs) == 0 {
		return model.Registrar{}, false
	}
	// IANA IDs run mostly consecutive (registrars.BuildDirectory hands them
	// out in order), so try the ID's offset from the first before searching.
	i := ianaID - rs[0].IANAID
	if i < 0 || i >= len(rs) || rs[i].IANAID != ianaID {
		i = searchRegistrars(rs, ianaID)
	}
	if i < len(rs) && rs[i].IANAID == ianaID {
		return rs[i], true
	}
	return model.Registrar{}, false
}

// searchRegistrars is where ianaID is or belongs in rs, sorted by IANA ID.
func searchRegistrars(rs []model.Registrar, ianaID int) int {
	return sort.Search(len(rs), func(i int) bool { return rs[i].IANAID >= ianaID })
}

// addRegistrarsLocked publishes the accreditations with rs added, each
// replacing any of its IANA ID. The caller holds regMu for writing. IDs
// that sort after every listed one go into the current array's room
// (registrarList); the first other add copies the list into an array a
// quarter longer than it, private until it is published, so in-order adds
// copy O(log n) times and leave at most a quarter of the array unused (a
// registrar is 136 bytes; doubling would leave ≈ 24 KB of room behind a
// directory's 356).
func (s *Store) addRegistrarsLocked(rs ...model.Registrar) {
	cur := s.registrars.Load()
	list, private := cur.listed(), false
	for _, r := range rs {
		i := searchRegistrars(list, r.IANAID)
		if i == len(list) && len(list) < cap(list) {
			list = append(list, r) // past every reader's n
			continue
		}
		if !private {
			grown := make([]model.Registrar, len(list), max(len(list)+len(list)/4, len(list)+len(rs), 8))
			copy(grown, list)
			list, private = grown, true
		}
		if i < len(list) && list[i].IANAID == r.IANAID {
			list[i] = r
		} else {
			list = slices.Insert(list, i, r)
		}
	}
	if !private {
		if n := int64(len(list)); n != cur.n.Load() {
			cur.n.Store(n)
		}
		return
	}
	next := &registrarList{rs: list[:cap(list)]}
	next.n.Store(int64(len(list)))
	s.registrars.Store(next)
}

// Registrars returns all accreditations, sorted by IANA ID.
func (s *Store) Registrars() []model.Registrar {
	s.regMu.RLock()
	defer s.regMu.RUnlock()
	return s.registrarsLocked()
}

// registrarsLocked copies the sorted accreditation list; the caller holds
// regMu (either mode).
func (s *Store) registrarsLocked() []model.Registrar {
	return slices.Clone(s.registrars.Load().listed())
}

// splitNameSyntax validates name's structure — a label and a non-empty
// suffix, lowercase LDH label of 1–63 chars — without deciding whether any
// zone operates the suffix. That is the store's call (splitName).
func splitNameSyntax(name string) (label string, tld model.TLD, err error) {
	t, ok := model.TLDOf(name)
	if !ok {
		return "", "", fmt.Errorf("%w: %q", ErrUnknownTLD, name)
	}
	label = name[:len(name)-len(t)-1]
	if names.Validate(label) != nil {
		return "", "", fmt.Errorf("%w: %q", ErrBadName, name)
	}
	return label, t, nil
}

// splitName validates name's syntax and that its TLD is operated by one of
// this store's zones. Takes no lock; safe under a shard lock (replay calls
// it there).
func (s *Store) splitName(name string) (label string, tld model.TLD, err error) {
	label, tld, err = splitNameSyntax(name)
	if err != nil {
		return "", "", err
	}
	if !s.HostsTLD(tld) {
		return "", "", fmt.Errorf("%w: %q", ErrUnknownTLD, name)
	}
	return label, tld, nil
}

// Available reports whether name could be created right now.
func (s *Store) Available(name string) (bool, error) {
	if _, _, err := s.splitName(name); err != nil {
		return false, err
	}
	sh := s.shardOf(name)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	r, _ := sh.tab.get(name)
	return r == nil, nil
}

// Create registers name to registrarID for termYears, timestamped with the
// store clock, and returns the new registration by value. A name taken in
// any lifecycle state — names in pendingDelete are not re-registrable until
// purged by the Drop, the scarcity drop-catching competes over — fails with
// the bare ErrExists under the shard's read lock: no write lock, no heap.
func (s *Store) Create(name string, registrarID int, termYears int) (model.Domain, error) {
	return s.CreateAt(name, registrarID, termYears, s.clock.Now())
}

// CreateAt is Create with an explicit creation instant; the simulation driver
// uses it to materialise claims resolved during a Drop at their exact
// re-registration times. The instant is truncated to whole seconds.
func (s *Store) CreateAt(name string, registrarID int, termYears int, at time.Time) (model.Domain, error) {
	if termYears < 1 || termYears > 10 {
		return model.Domain{}, fmt.Errorf("%w: term %d years", ErrBadName, termYears)
	}
	at = simtime.Trunc(at)
	return s.insertNew(&Mutation{Kind: MutCreate, Name: name, RegistrarID: registrarID,
		Created: at, Updated: at, Expiry: at.AddDate(termYears, 0, 0)})
}

// insertNew commits m, a create or a seed, as a new registration: the shared
// tail of CreateAt and SeedAt. applyLocked checks the name and hands out the
// ID.
func (s *Store) insertNew(m *Mutation) (model.Domain, error) {
	// Accreditation check before the shard lock (keeps single-domain
	// operations on one lock); add-only registrars make this TOCTOU-safe.
	if _, ok := s.Registrar(m.RegistrarID); !ok {
		return model.Domain{}, fmt.Errorf("%w: IANA ID %d", ErrUnknownRegistrar, m.RegistrarID)
	}
	res, err := s.commit(m, true, nil)
	if err != nil {
		return model.Domain{}, err
	}
	return model.Domain{ID: m.ID, Name: m.Name, TLD: res.tld, RegistrarID: m.RegistrarID,
		Created: m.Created, Updated: m.Updated, Expiry: m.Expiry, Status: m.Status, DeleteDay: m.DeleteDay}, nil
}

// prepare converts d, whose name hashes to h, to the record insert files,
// refusing a name sh already holds with the bare ErrExists. The caller
// holds sh's write lock.
func (sh *shard) prepare(d *model.Domain, h uint64) (record, error) {
	if r, _ := sh.tab.find(d.Name, h); r != nil {
		return record{}, ErrExists
	}
	return newRecord(d)
}

// insert files rec, prepared with its name's hash h, as a new registration
// of sh and indexes it. The caller holds sh's write lock.
func (sh *shard) insert(rec record, h uint64) *record {
	r, ref := sh.tab.put(rec, h)
	sh.dueAdd(r, ref)
	return r
}

// reserveID takes the next object ID, or refuses when the allocator has
// handed out the last one a record can hold (2³²−1). A compare-and-swap, not
// Add: an exhausted allocator stays where it is.
func (s *Store) reserveID() (uint64, error) {
	for {
		cur := s.nextID.Load()
		if cur >= math.MaxUint32 {
			return 0, fmt.Errorf("%w: object IDs exhausted at %d", errUnrepresentable, cur)
		}
		if s.nextID.CompareAndSwap(cur, cur+1) {
			return cur + 1, nil
		}
	}
}

// AuthInfo returns the registration's transfer code; only the sponsoring
// registrar may read it.
func (s *Store) AuthInfo(name string, registrarID int) (string, error) {
	sh := s.shardOf(name)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	r, _ := sh.tab.get(name)
	if r == nil {
		return "", fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if int(r.registrar) != registrarID {
		return "", fmt.Errorf("%w: %q", ErrWrongRegistrar, name)
	}
	return sh.authInfo(r), nil
}

// Transfer moves an active registration to the gaining registrar when the
// presented authorisation code matches, rotating the code and recording the
// update (registrar transfers bump the "last updated" timestamp, another
// reason update times spread across registrations). The losing sponsor is
// notified through the observer.
func (s *Store) Transfer(name string, gainingID int, authInfo string) error {
	// Pre-read the accreditation so the critical section touches only the
	// shard; the error precedence below matches the single-lock store.
	_, gainingKnown := s.Registrar(gainingID)
	m := Mutation{Kind: MutTransfer, Name: name, RegistrarID: gainingID}
	_, err := s.commit(&m, true, func(sh *shard, r *record) error {
		switch {
		case r == nil:
			return fmt.Errorf("%w: %q", ErrNotFound, name)
		case !gainingKnown:
			return fmt.Errorf("%w: IANA ID %d", ErrUnknownRegistrar, gainingID)
		case r.status() != model.StatusActive && r.status() != model.StatusAutoRenew:
			return fmt.Errorf("%w: %q in %v", ErrStatusProhibits, name, r.status())
		case int(r.registrar) == gainingID:
			return fmt.Errorf("%w: %q already sponsored by %d", ErrWrongRegistrar, name, gainingID)
		case !sh.authMatches(r, authInfo):
			return fmt.Errorf("%w: %q", ErrBadAuthInfo, name)
		}
		m.Updated = simtime.Trunc(s.clock.Now())
		return nil
	})
	return err
}

// Lookup returns a copy of the current registration of name, or false; it
// allocates nothing (the copy's name and TLD share the store's bytes).
func (s *Store) Lookup(name string) (model.Domain, bool) {
	sh := s.shardOf(name)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	r, _ := sh.tab.get(name)
	if r == nil {
		return model.Domain{}, false
	}
	return r.domain(), true
}

// Get is Lookup with the copy on the heap, or ErrNotFound.
func (s *Store) Get(name string) (*model.Domain, error) {
	d, ok := s.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	found := d // moved to the heap here, so a miss does not pay for it
	return &found, nil
}

// Touch records a registrar-initiated update to the domain, setting the
// "last updated" timestamp that later determines the deletion order.
func (s *Store) Touch(name string, registrarID int) error {
	return s.TouchAt(name, registrarID, s.clock.Now())
}

// TouchAt is Touch at an explicit instant (truncated to seconds).
func (s *Store) TouchAt(name string, registrarID int, at time.Time) error {
	m := Mutation{Kind: MutTouch, Name: name, Updated: simtime.Trunc(at)}
	_, err := s.commit(&m, true, func(_ *shard, r *record) error { return sponsored(name, r, registrarID) })
	return err
}

// sponsored refuses a mutation of name unless its registration r exists and
// registrarID sponsors it.
func sponsored(name string, r *record, registrarID int) error {
	if r == nil {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if int(r.registrar) != registrarID {
		return fmt.Errorf("%w: %q", ErrWrongRegistrar, name)
	}
	return nil
}

// Renew extends the registration by years (1 to 10, as CreateAt's term) and
// records the update.
func (s *Store) Renew(name string, registrarID int, years int) error {
	if years < 1 || years > 10 {
		return fmt.Errorf("%w: renewal of %d years", ErrBadName, years)
	}
	m := Mutation{Kind: MutRenew, Name: name}
	_, err := s.commit(&m, true, func(_ *shard, r *record) error {
		if err := sponsored(name, r, registrarID); err != nil {
			return err
		}
		m.Updated = simtime.Trunc(s.clock.Now())
		m.Expiry = simtime.UnpackTime(r.expiry).AddDate(years, 0, 0)
		return nil
	})
	return err
}

// setState transitions a domain's lifecycle state; used by the lifecycle
// engine and the population seeder (via the exported helpers below). A zero
// updated keeps the registration's last-updated timestamp.
func (s *Store) setState(name string, st model.Status, updated time.Time, deleteDay simtime.Day) error {
	m := Mutation{Kind: MutSetState, Name: name, Status: st, Updated: simtime.Trunc(updated), DeleteDay: deleteDay}
	_, err := s.commit(&m, true, nil)
	return err
}

// MarkRedemption is a registrar's delete: it moves the domain into the
// redemption period; at is the delete instant and becomes the domain's
// last-updated timestamp (the future deletion-order key). Like Renew and
// Transfer it refuses under the shard lock, so a transfer or a lifecycle
// step that lands first is seen: ErrNotFound, ErrWrongRegistrar unless
// registrarID sponsors the domain, ErrStatusProhibits unless it is active
// or in autoRenew.
func (s *Store) MarkRedemption(name string, registrarID int, at time.Time) error {
	m := Mutation{Kind: MutSetState, Name: name, Status: model.StatusRedemption, Updated: simtime.Trunc(at)}
	_, err := s.commit(&m, true, func(_ *shard, r *record) error {
		if err := sponsored(name, r, registrarID); err != nil {
			return err
		}
		if st := r.status(); st != model.StatusActive && st != model.StatusAutoRenew {
			return fmt.Errorf("%w: %q in %v", ErrStatusProhibits, name, st)
		}
		return nil
	})
	return err
}

// MarkPendingDelete moves the domain into pendingDelete scheduled for
// deletion on day. updated is the registrar's delete instant (the future
// deletion-order key); pass the zero time to keep the current value.
func (s *Store) MarkPendingDelete(name string, updated time.Time, day simtime.Day) error {
	return s.setState(name, model.StatusPendingDelete, updated, day)
}

// Pending is one name of a pending-delete window: the name and the day its
// deletion is scheduled for. The name shares the store's bytes; the day is
// a stored day (simtime.Day.Pack), set by NewPending and read through
// DeleteDay, so an entry is 24 bytes.
type Pending struct {
	Name string
	day  uint16
	// key is PendingDeletions' sort scratch, the name's first four bytes;
	// 0 in every entry it returns and every one NewPending builds.
	key uint32
}

// NewPending builds an entry. A delete day a stored day cannot hold —
// outside 1970-01-02 … 2149-06-06 or not a calendar date — is an error.
func NewPending(name string, deleteDay simtime.Day) (Pending, error) {
	day, ok := deleteDay.Pack()
	if !ok {
		return Pending{}, fmt.Errorf("registry: %s: delete day %v not representable", name, deleteDay)
	}
	return Pending{Name: name, day: day}, nil
}

// DeleteDay is the day the name's deletion is scheduled for.
func (p Pending) DeleteDay() simtime.Day { return simtime.UnpackDay(p.day) }

// PackedDeleteDay is DeleteDay as simtime.Day.Pack stores it.
func (p Pending) PackedDeleteDay() uint16 { return p.day }

// PendingDeletions returns the names in pendingDelete whose scheduled
// deletion day falls within [from, from+days), sorted by (DeleteDay, Name) so
// published pending-delete lists are stable — the paper observed that list
// order is *not* the deletion order (Figure 3, top).
//
// It walks only the due-day buckets inside the window, each shard's under
// one read lock (a name moved between days meanwhile is listed once), groups
// the walked names by their bucket's day in place and sorts each day by
// name: names are unique, so the order is total and the output is identical
// at every shard count.
func (s *Store) PendingDeletions(from simtime.Day, days int) []Pending {
	end := from.AddDays(days)
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		sh.dueBetween(model.StatusPendingDelete, from, end, func(*record) { n++ })
		sh.mu.RUnlock()
	}
	// Until the entries are sorted, an entry's day holds its offset from the
	// window's first bucket key (counts[k] entries have offset k) and its key
	// its name's first four bytes, so most comparisons never read the names.
	first := max(dayKey(from.Number()), 1)
	out := make([]Pending, 0, n)
	var countsBuf [8]int
	counts := countsBuf[:0]
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		sh.dueBetween(model.StatusPendingDelete, from, end, func(r *record) {
			k := int(uint32(r.deleteDay) - first)
			for len(counts) <= k {
				counts = append(counts, 0)
			}
			counts[k]++
			name := r.name()
			out = append(out, Pending{Name: name, day: uint16(k), key: namePrefix(name)})
		})
		sh.mu.RUnlock()
	}
	groupByDay(out, counts)
	at := 0
	for k, c := range counts {
		seg := out[at : at+c]
		slices.SortFunc(seg, func(a, b Pending) int {
			return cmp.Or(cmp.Compare(a.key, b.key), strings.Compare(a.Name, b.Name))
		})
		day := uint16(first + uint32(k))
		for j := range seg {
			seg[j].day, seg[j].key = day, 0
		}
		at += c
	}
	return out
}

// namePrefix is name's first four bytes, zero-padded, as a big-endian
// integer: prefixes order as the names do, and equal prefixes leave the
// order to the names themselves.
func namePrefix(name string) uint32 {
	var b [4]byte
	copy(b[:], name)
	return binary.BigEndian.Uint32(b[:])
}

// groupByDay orders out by the day offset each entry holds in its day,
// counts[k] entries having offset k, in place: every entry not yet in its
// day's segment is swapped straight to the next free slot of that segment.
// Each swap settles one entry for good, so this is linear in len(out).
func groupByDay(out []Pending, counts []int) {
	var nextBuf, endBuf [8]int
	next, segEnd := nextBuf[:0], endBuf[:0]
	at := 0
	for _, c := range counts {
		next, segEnd = append(next, at), append(segEnd, at+c)
		at += c
	}
	for k := range counts {
		for next[k] < segEnd[k] {
			j := int(out[next[k]].day)
			if j != k {
				out[next[k]], out[next[j]] = out[next[j]], out[next[k]]
			}
			next[j]++
		}
	}
}

// purge removes the domain as part of a Drop, recording the ground-truth
// deletion event. The caller (DropRunner) holds the deletion order. An
// instant or rank the event cannot hold is refused before anything changes.
func (s *Store) purge(name string, at time.Time, rank int) (model.DeletionEvent, error) {
	m := Mutation{Kind: MutPurge, Name: name, Time: simtime.Trunc(at), Rank: rank}
	res, err := s.commit(&m, true, func(_ *shard, r *record) error {
		if r == nil {
			return fmt.Errorf("%w: %q", ErrNotFound, name)
		}
		if r.status() != model.StatusPendingDelete {
			return fmt.Errorf("%w: %q in %v", ErrNotPendingDelete, name, r.status())
		}
		m.ID = uint64(r.id)
		return nil
	})
	return res.ev, err
}

// Deletions returns the ground-truth deletion events recorded on day, in
// deletion order. The measurement pipeline must not use these; they exist
// for the inference-accuracy ablation.
func (s *Store) Deletions(day simtime.Day) []model.DeletionEvent {
	s.delMu.Lock()
	defer s.delMu.Unlock()
	return append([]model.DeletionEvent(nil), s.deletions[day]...)
}

// Count returns the number of live (non-purged) registrations.
func (s *Store) Count() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += sh.tab.len()
		sh.mu.RUnlock()
	}
	return n
}

// StatusCounts tallies live registrations per lifecycle state. The tallies
// are maintained incrementally per shard, so this is O(shards · states),
// not O(store).
func (s *Store) StatusCounts() map[model.Status]int {
	var total [model.StatusDeleted + 1]int
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for st, n := range sh.statusCount {
			total[st] += n
		}
		sh.mu.RUnlock()
	}
	out := make(map[model.Status]int)
	for st, n := range total {
		if n > 0 {
			out[model.Status(st)] = n
		}
	}
	return out
}

// Each calls fn for every live registration (copies, unspecified order) and
// stops early if fn returns false.
//
// Locking contract: a shard read lock is held while that shard is swept, so
// fn must not call any Store method — not even read-only ones like Get. A
// re-entrant RLock deadlocks as soon as a writer is queued behind the held
// lock. The safe pattern is collect-then-act: record what to change while
// iterating and apply it after Each returns (TestEachCollectThenAct pins
// this down). The copies are fn's to keep and mutate freely.
//
// Consistency: shards are visited one at a time, so concurrent mutators may
// commit between shard visits; the sweep is a consistent snapshot per shard,
// not of the whole store. Single-threaded drives (every simulation path) see
// exactly the single-lock behaviour.
func (s *Store) Each(fn func(*model.Domain) bool) {
	s.each(func(r *record) bool {
		d := r.domain()
		return fn(&d)
	})
}

// each is the copy-free internal iteration path: fn receives the store's
// live records, each shard's in slot order, with the owning shard's read
// lock held. fn must treat them as strictly read-only, must not retain a
// pointer past its call, and must not call Store methods (same
// self-deadlock as Each). Hot sweeps use this (and the due-index visitors
// below) to avoid materialising one Domain per registration per scan;
// everything that escapes the package gets Each's copies.
func (s *Store) each(fn func(*record) bool) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		done := sh.tab.each(func(r *record, _ uint32) bool { return fn(r) })
		sh.mu.RUnlock()
		if !done {
			return
		}
	}
}

// eachDueThrough calls fn for every live registration in st, a state with
// due buckets, whose bucket day is on or before limit. Same read-only,
// lock-held contract as each; shard visit order and bucket-internal order
// are unspecified, so callers sort deterministically.
func (s *Store) eachDueThrough(st model.Status, limit simtime.Day, fn func(*record)) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		sh.dueThrough(st, limit, fn)
		sh.mu.RUnlock()
	}
}

// eachExpired calls fn for every live active registration whose expiry is
// at or before now (Unix seconds). It walks each shard one table chunk per
// read-lock hold, so a writer waits out at most one chunk, and skips every
// chunk whose expiry bound is after now: between expiries the pass costs
// O(chunks). Same read-only, lock-held contract as each; the order is
// unspecified.
func (s *Store) eachExpired(now int64, fn func(*record)) {
	for i := range s.shards {
		sh := &s.shards[i]
		for c := 0; ; c++ {
			sh.mu.RLock()
			if c >= len(sh.tab.chunks) {
				sh.mu.RUnlock()
				break
			}
			sh.tab.expiredIn(c, now, fn)
			sh.mu.RUnlock()
		}
	}
}

// pendingOn returns copies of the pendingDelete records scheduled for
// deletion on day — that day's whole Drop queue, in unspecified order; a day
// no record can hold has none. The copies are the caller's: nothing in them
// follows a later mutation.
func (s *Store) pendingOn(day simtime.Day) []record {
	key, err := packDay(day)
	if err != nil {
		return nil
	}
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		sh.dueOn(model.StatusPendingDelete, uint32(key), func(*record) { n++ })
		sh.mu.RUnlock()
	}
	out := make([]record, 0, n)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		sh.dueOn(model.StatusPendingDelete, uint32(key), func(r *record) { out = append(out, *r) })
		sh.mu.RUnlock()
	}
	return out
}

// SeedAt inserts a fully specified historical registration and returns it by
// value. The population seeder uses it to backfill domains that were created
// years before the simulation starts. IDs must be assigned through the store
// to preserve the "IDs increase with creation time" invariant, so SeedAt
// takes no ID; call it in creation-time order.
func (s *Store) SeedAt(name string, registrarID int, created, updated, expiry time.Time, st model.Status, deleteDay simtime.Day) (model.Domain, error) {
	return s.insertNew(&Mutation{Kind: MutSeed, Name: name, RegistrarID: registrarID,
		Created: simtime.Trunc(created), Updated: simtime.Trunc(updated), Expiry: simtime.Trunc(expiry),
		Status: st, DeleteDay: deleteDay})
}
