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
	"errors"
	"fmt"
	"hash/maphash"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dropzero/internal/model"
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
// and status tallies, and the due-day policy — is resident in that shard,
// guarded by that shard's lock. The EPP hot path (Check/Info/Create during
// the Drop second) therefore serialises only against operations on names
// that hash to the same shard, not against the whole registry.
type shard struct {
	mu  sync.RWMutex
	tab table // live registrations: the records and their name index
	// authStored holds the transfer codes that cannot be recomputed from
	// their record (authStored state): restored codes that match neither
	// derivation. nil until one shows up.
	authStored map[string]string

	// policy computes each registration's due day. Every shard holds the
	// same value (installed shard-by-shard via setDuePolicy); keeping a copy
	// per shard lets dueAdd/dueRemove read it under the shard lock alone.
	policy duePolicy
	// due is the time-bucketed secondary index: per lifecycle state, this
	// shard's live registrations bucketed by the UTC day their next
	// transition becomes due. Maintained incrementally by every mutator; the
	// daily sweeps merge the per-shard buckets in canonical order.
	due [model.StatusDeleted]dueIndex
	// statusCount tallies this shard's live registrations per state.
	statusCount [model.StatusDeleted + 1]int
}

// dueAdd indexes r (slot ref) under its current state and due day and bumps
// the status counter. The caller holds the shard's write lock; every live
// domain is indexed exactly once, in the shard its name hashes to.
func (sh *shard) dueAdd(r *record, ref uint32) {
	if int(r.status()) < len(sh.statusCount) {
		sh.statusCount[r.status()]++
	}
	if int(r.status()) < len(sh.due) {
		sh.due[r.status()].add(sh.policy.dueDay(r), ref, &sh.tab)
	}
}

// dueRemove un-indexes r. It must run *before* any field that feeds
// duePolicy.dueDay (status, expiry, updated, registrar, deleteDay) is
// mutated, or the removal would look in the wrong bucket.
func (sh *shard) dueRemove(r *record, ref uint32) {
	if int(r.status()) < len(sh.statusCount) {
		sh.statusCount[r.status()]--
	}
	if int(r.status()) < len(sh.due) {
		sh.due[r.status()].remove(sh.policy.dueDay(r), ref, &sh.tab)
	}
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
// registrar and deletion-archive locks may be taken while holding a shard
// lock but never the reverse. Multi-shard readers release shard i before
// locking shard i+1, so there is no lock-order cycle anywhere in the store.
// The single exception is a quiesced ReadSnapshot, which read-locks regMu
// and every shard in ascending index order; that still nests cleanly
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

	regMu      sync.RWMutex
	registrars map[int]model.Registrar

	// deletions is the ground-truth archive of Drop deletions, per day.
	// Guarded by its own mutex: purge appends while holding the purged
	// name's shard lock (shard → delMu, never the reverse).
	delMu     sync.Mutex
	deletions map[simtime.Day][]model.DeletionEvent

	// zoneTab is the zone registry: which TLDs this store operates, under
	// which lifecycle and drop policy (zones.go). Its mutex is a leaf lock
	// like delMu: splitName reads it under a shard lock during replay.
	zoneTab zoneTable
}

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

// setDuePolicy installs the due-day policy and rebuilds every index bucket
// under it — O(store), paid once when a Lifecycle is attached or its grace
// spread changes. Shards are rebuilt one at a time under their own locks.
func (s *Store) setDuePolicy(p duePolicy) {
	// The base parameters govern the default zone; TLDs operated by other
	// zones keep their own lifecycle clocks through the per-TLD overrides,
	// whatever Lifecycle is (re-)attached for the default zone.
	p.perTLD = s.zoneDuePerTLD()
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for j := range sh.due {
			sh.due[j] = dueIndex{}
		}
		sh.policy = p
		sh.tab.each(func(r *record, ref uint32) bool {
			if int(r.status()) < len(sh.due) {
				sh.due[r.status()].add(p.dueDay(r), ref, &sh.tab)
			}
			return true
		})
		sh.mu.Unlock()
	}
}

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
		clock:      clock,
		shards:     make([]shard, n),
		mask:       uint64(n - 1),
		registrars: make(map[int]model.Registrar),
		deletions:  make(map[simtime.Day][]model.DeletionEvent),
	}
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
	s.registrars[r.IANAID] = r
	if live {
		wait = s.appendJournal(&Mutation{Kind: MutAddRegistrar, Registrar: r})
	}
	s.bumpGen()
	return wait
}

// Registrar looks up an accreditation by IANA ID.
func (s *Store) Registrar(ianaID int) (model.Registrar, bool) {
	s.regMu.RLock()
	defer s.regMu.RUnlock()
	r, ok := s.registrars[ianaID]
	return r, ok
}

// hasRegistrar reports whether ianaID is accredited. Accreditations are
// add-only, so a true answer read before taking a shard lock cannot go
// stale inside the critical section.
func (s *Store) hasRegistrar(ianaID int) bool {
	s.regMu.RLock()
	defer s.regMu.RUnlock()
	_, ok := s.registrars[ianaID]
	return ok
}

// Registrars returns all accreditations, sorted by IANA ID.
func (s *Store) Registrars() []model.Registrar {
	s.regMu.RLock()
	defer s.regMu.RUnlock()
	return s.registrarsLocked()
}

// registrarsLocked builds the sorted accreditation list; the caller holds
// regMu (either mode).
func (s *Store) registrarsLocked() []model.Registrar {
	out := make([]model.Registrar, 0, len(s.registrars))
	for _, r := range s.registrars {
		out = append(out, r)
	}
	slices.SortFunc(out, func(a, b model.Registrar) int { return cmp.Compare(a.IANAID, b.IANAID) })
	return out
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
	if label == "" || len(label) > 63 {
		return "", "", fmt.Errorf("%w: %q", ErrBadName, name)
	}
	for i := 0; i < len(label); i++ {
		c := label[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '-':
		default:
			return "", "", fmt.Errorf("%w: %q", ErrBadName, name)
		}
	}
	if label[0] == '-' || label[len(label)-1] == '-' {
		return "", "", fmt.Errorf("%w: %q", ErrBadName, name)
	}
	return label, t, nil
}

// splitName validates name's syntax and that its TLD is operated by one of
// this store's zones. Reads the zone table's leaf lock only; safe under a
// shard lock (replay calls it there).
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
// store clock. It fails with ErrExists if the name is taken in any lifecycle
// state — names in pendingDelete are not re-registrable until purged by the
// Drop, which is exactly the scarcity drop-catching competes over.
func (s *Store) Create(name string, registrarID int, termYears int) (*model.Domain, error) {
	return s.CreateAt(name, registrarID, termYears, s.clock.Now())
}

// CreateAt is Create with an explicit creation instant; the simulation driver
// uses it to materialise claims resolved during a Drop at their exact
// re-registration times. The instant is truncated to whole seconds.
func (s *Store) CreateAt(name string, registrarID int, termYears int, at time.Time) (*model.Domain, error) {
	if termYears < 1 || termYears > 10 {
		return nil, fmt.Errorf("%w: term %d years", ErrBadName, termYears)
	}
	at = simtime.Trunc(at)
	return s.insertNew(&Mutation{Kind: MutCreate, Name: name, RegistrarID: registrarID,
		Created: at, Updated: at, Expiry: at.AddDate(termYears, 0, 0)})
}

// insertNew commits m, a create or a seed, as a new registration: the shared
// tail of CreateAt and SeedAt. applyLocked checks the name and hands out the
// ID.
func (s *Store) insertNew(m *Mutation) (*model.Domain, error) {
	// Accreditation check before the shard lock (keeps single-domain
	// operations on one lock); add-only registrars make this TOCTOU-safe.
	if !s.hasRegistrar(m.RegistrarID) {
		return nil, fmt.Errorf("%w: IANA ID %d", ErrUnknownRegistrar, m.RegistrarID)
	}
	res, err := s.commit(m, true, nil)
	if err != nil {
		return nil, err
	}
	return &model.Domain{ID: m.ID, Name: m.Name, TLD: res.tld, RegistrarID: m.RegistrarID,
		Created: m.Created, Updated: m.Updated, Expiry: m.Expiry, Status: m.Status, DeleteDay: m.DeleteDay}, nil
}

// prepare converts d to the record insert files, refusing a name sh already
// holds. The caller holds sh's write lock.
func (sh *shard) prepare(d *model.Domain) (record, error) {
	if r, _ := sh.tab.get(d.Name); r != nil {
		return record{}, fmt.Errorf("%w: %q", ErrExists, d.Name)
	}
	return newRecord(d)
}

// insert files rec, prepared, as a new registration of sh and indexes it.
// The caller holds sh's write lock.
func (sh *shard) insert(rec record) *record {
	r, ref := sh.tab.put(rec)
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
	gainingKnown := s.hasRegistrar(gainingID)
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

// MarkRedemption moves the domain into the redemption period following a
// registrar-initiated delete; at is the delete instant and becomes the
// domain's last-updated timestamp (the future deletion-order key).
func (s *Store) MarkRedemption(name string, at time.Time) error {
	return s.setState(name, model.StatusRedemption, at, simtime.Day{})
}

// MarkPendingDelete moves the domain into pendingDelete scheduled for
// deletion on day. updated is the registrar's delete instant (the future
// deletion-order key); pass the zero time to keep the current value.
func (s *Store) MarkPendingDelete(name string, updated time.Time, day simtime.Day) error {
	return s.setState(name, model.StatusPendingDelete, updated, day)
}

// PendingDeletions returns copies of all domains in pendingDelete whose
// scheduled deletion day falls within [from, from+days). Results are sorted
// by (DeleteDay, Name) so published pending-delete lists are stable — the
// paper observed that list order is *not* the deletion order (Figure 3, top).
//
// It walks only the due-day buckets inside the window, shard by shard, then
// imposes the canonical (DeleteDay, Name) order on the merged result — names
// are unique, so the sort is total and the output is byte-identical at every
// shard count.
func (s *Store) PendingDeletions(from simtime.Day, days int) []*model.Domain {
	end := from.AddDays(days)
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		sh.due[model.StatusPendingDelete].eachBucket(from, end, &sh.tab, func(*record) { n++ })
		sh.mu.RUnlock()
	}
	out := make([]*model.Domain, 0, n)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		sh.due[model.StatusPendingDelete].eachBucket(from, end, &sh.tab, func(r *record) {
			d := r.domain()
			out = append(out, &d)
		})
		sh.mu.RUnlock()
	}
	slices.SortFunc(out, func(a, b *model.Domain) int {
		if c := a.DeleteDay.Compare(b.DeleteDay); c != 0 {
			return c
		}
		return strings.Compare(a.Name, b.Name)
	})
	return out
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

// eachDueThrough calls fn for every live registration in state st whose
// due-day bucket is on or before limit. Same read-only, lock-held contract
// as each; shard visit order and bucket-internal order are unspecified,
// so callers sort deterministically.
func (s *Store) eachDueThrough(st model.Status, limit simtime.Day, fn func(*record)) {
	if int(st) >= int(model.StatusDeleted) {
		return
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		sh.due[st].through(limit, &sh.tab, fn)
		sh.mu.RUnlock()
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
	var out []record
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		ix, n := &sh.due[model.StatusPendingDelete], 0
		ix.bucket(uint32(key), &sh.tab, func(*record) { n++ })
		out = slices.Grow(out, n)
		ix.bucket(uint32(key), &sh.tab, func(r *record) { out = append(out, *r) })
		sh.mu.RUnlock()
	}
	return out
}

// SeedAt inserts a fully specified historical registration. The population
// seeder uses it to backfill domains that were created years before the
// simulation starts. IDs must be assigned through the store to preserve the
// "IDs increase with creation time" invariant, so SeedAt takes no ID; call it
// in creation-time order.
func (s *Store) SeedAt(name string, registrarID int, created, updated, expiry time.Time, st model.Status, deleteDay simtime.Day) (*model.Domain, error) {
	return s.insertNew(&Mutation{Kind: MutSeed, Name: name, RegistrarID: registrarID,
		Created: simtime.Trunc(created), Updated: simtime.Trunc(updated), Expiry: simtime.Trunc(expiry),
		Status: st, DeleteDay: deleteDay})
}
