package registry

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"

	"dropzero/internal/model"
	"dropzero/internal/par"
	"dropzero/internal/simtime"
	"dropzero/internal/zone"
)

// This file is the store's durability seam: every committed mutation is
// describable as a plain-data Mutation record, an attached Journal receives
// each record inside the mutating critical section, and Apply replays a
// record stream into an empty store, reproducing byte-identical state. The
// WAL encoding, segment management and snapshot files live in
// internal/journal; the registry only defines what a mutation *is* and how
// to re-apply one.

// MutKind identifies the store mutator a Mutation records.
type MutKind uint8

// One kind per mutator. Values are part of the on-disk WAL format: never
// renumber, only append.
const (
	MutAddRegistrar MutKind = 1 + iota
	MutCreate
	MutSeed
	MutTouch
	MutRenew
	MutTransfer
	MutSetState
	MutPurge
	MutAddZone
)

var mutKindNames = [...]string{
	MutAddRegistrar: "addRegistrar",
	MutCreate:       "create",
	MutSeed:         "seed",
	MutTouch:        "touch",
	MutRenew:        "renew",
	MutTransfer:     "transfer",
	MutSetState:     "setState",
	MutPurge:        "purge",
	MutAddZone:      "addZone",
}

// String returns the mutator name.
func (k MutKind) String() string {
	if int(k) < len(mutKindNames) && mutKindNames[k] != "" {
		return mutKindNames[k]
	}
	return fmt.Sprintf("MutKind(%d)", uint8(k))
}

// Mutation is the complete, self-contained record of one committed Store
// mutation. Every field a replay needs is absolute (assigned object IDs,
// resulting timestamps, resulting states), never derived from clocks or
// allocators, so applying the same record stream to an empty store always
// reproduces the same state. Which fields are meaningful depends on Kind:
//
//	MutAddRegistrar: Registrar
//	MutCreate:       ID, Name, RegistrarID, Created, Updated, Expiry
//	MutSeed:         ID, Name, RegistrarID, Created, Updated, Expiry, Status, DeleteDay
//	MutTouch:        Name, Updated
//	MutRenew:        Name, Updated, Expiry
//	MutTransfer:     Name, RegistrarID (gaining), Updated
//	MutSetState:     Name, Status, Updated (zero = keep), DeleteDay
//	MutPurge:        ID, Name, Time, Rank
//	MutAddZone:      Zone
type Mutation struct {
	Kind MutKind

	Name        string
	ID          uint64
	RegistrarID int

	Created time.Time
	Updated time.Time
	Expiry  time.Time

	Status    model.Status
	DeleteDay simtime.Day

	// Purge event fields.
	Time time.Time
	Rank int

	// MutAddRegistrar payload.
	Registrar model.Registrar

	// MutAddZone payload.
	Zone zone.Config
}

// Journal receives every committed store mutation. Append is called inside
// the mutating critical section (shard write lock or registrar lock), after
// the in-memory change and before the generation bump, so the journal's
// record order is a linearisation of commit order and the snapshotter's
// generation-equality check brackets exactly the records it has seen.
//
// Append must be fast and non-blocking (buffer the record); it returns a
// wait function for callers that need durability before acknowledging —
// the store invokes it after releasing all locks. A nil wait means nothing
// to wait for (asynchronous durability).
type Journal interface {
	Append(m Mutation) (wait func() error)
}

// SetJournal attaches j as the store's write-ahead journal; pass nil to
// detach. Attach before the store receives traffic: mutators read the
// pointer atomically, so a mid-traffic swap cannot corrupt state, but any
// mutation committed while no journal is attached is simply not logged.
func (s *Store) SetJournal(j Journal) {
	if j == nil {
		s.journal.Store(nil)
		return
	}
	s.journal.Store(&j)
}

// appendJournal hands m to the attached journal, if any. Callers hold the
// critical section the mutation committed under and must invoke the
// returned wait (via waitJournal) only after releasing every lock.
func (s *Store) appendJournal(m *Mutation) func() error {
	if p := s.journal.Load(); p != nil {
		return (*p).Append(*m)
	}
	return nil
}

// waitJournal runs the durability wait returned by appendJournal. A non-nil
// error means the mutation is committed in memory but its durability is not
// established — the store is ahead of its log, and the caller should treat
// the operation (and usually the process) as failed.
func waitJournal(wait func() error) error {
	if wait == nil {
		return nil
	}
	if err := wait(); err != nil {
		return fmt.Errorf("registry: journal: %w", err)
	}
	return nil
}

// Apply replays one mutation record during recovery. It reproduces exactly
// the state change the original mutator committed — it runs the same
// applyLocked — without consulting the clock, the ID allocator or the
// attached journal (recovery attaches the journal only after replay), and
// delivers no observer event. It is not part of the serving API: records
// must be applied in their original order, single-goroutine, before the
// store receives traffic.
func (s *Store) Apply(m Mutation) error {
	var err error
	switch m.Kind {
	case MutAddRegistrar:
		s.addRegistrar(m.Registrar, false)
	case MutAddZone:
		err = s.addZone(m.Zone, false)
	default:
		_, err = s.commit(&m, false, nil)
	}
	if err != nil {
		return fmt.Errorf("registry: replay %v: %w", m.Kind, err)
	}
	return nil
}

// applied is what applyLocked reports of the change it made: the state and
// sponsor the registration had before (the observer event's from and losing
// registrar), a create's or seed's TLD, a purge's event.
type applied struct {
	from    model.Status
	sponsor int
	tld     model.TLD
	ev      model.DeletionEvent
}

// commit is the one way a domain mutation reaches the store outside a batch:
// every live mutator's tail, and Apply's. It hashes m.Name once. A live
// create of a taken name (most of a Drop's) gets the bare ErrExists under the
// read lock. Under the write lock, commit hands check, when there is one, the
// current registration (nil if none): check refuses, or completes m from it.
// m then goes through applyLocked, is journaled (live only) and bumps the
// generation; after unlocking, commit waits for durability and delivers the
// observer event (live only).
func (s *Store) commit(m *Mutation, live bool, check func(sh *shard, r *record) error) (res applied, err error) {
	sh := s.shardOf(m.Name)
	h := sh.tab.hash(m.Name)
	if live && m.Kind == MutCreate {
		sh.mu.RLock()
		r, _ := sh.tab.find(m.Name, h)
		sh.mu.RUnlock()
		if r != nil {
			return res, ErrExists
		}
	}
	sh.mu.Lock()
	if check != nil {
		r, _ := sh.tab.find(m.Name, h)
		err = check(sh, r)
	}
	if err == nil {
		res, err = s.applyLocked(sh, m, h, nil, 0)
	}
	if err != nil {
		sh.mu.Unlock()
		return res, err
	}
	var (
		wait func() error
		obs  Observer
	)
	if live {
		wait = s.appendJournal(m)
		obs = s.loadObserver()
	}
	s.bumpGen()
	sh.mu.Unlock()
	if err := waitJournal(wait); err != nil {
		return res, err
	}
	if obs == nil {
		return res, nil
	}
	switch m.Kind {
	case MutTransfer:
		obs.DomainTransferred(m.Name, res.sponsor, m.RegistrarID)
	case MutSetState:
		if res.from != m.Status {
			obs.DomainTransitioned(m.Name, res.sponsor, res.from, m.Status)
		}
	case MutPurge:
		obs.DomainPurged(res.ev, res.sponsor)
	}
	return res, nil
}

// purged is a deletion event a batch holds back, with its batch position.
type purged struct {
	idx int32
	ev  model.DeletionEvent
}

// applyLocked is the store's one state transition for a domain mutation:
// live mutators reach it through commit, replay through Apply and
// ApplyBatch, and nothing else changes a registration's fields, its
// due-index entry, its transfer code or its table slot, or archives a
// deletion. It refuses, before anything changes, a record that names no
// registration (for a create or seed: a taken name or one no zone operates)
// and any value the stored record or event cannot hold; the live mutators'
// own refusals (sponsor, auth, status, term) are theirs to make first. The
// caller holds sh's write lock, passes h = the hash of m.Name, and owns the
// generation bump.
//
// A create or seed with ID zero — a live one — reserves the next ID once
// nothing else can refuse it, so a refused create consumes none; a replayed
// one keeps its ID and raises the allocator to it. A purge archives its event,
// or, when held is non-nil (a batch), holds it with batch position idx for
// ApplyBatch to archive in batch order.
func (s *Store) applyLocked(sh *shard, m *Mutation, h uint64, held *[]purged, idx int32) (res applied, err error) {
	switch m.Kind {
	case MutCreate, MutSeed:
		_, tld, err := s.splitName(m.Name)
		if err != nil {
			return res, err
		}
		d := model.Domain{
			ID:          m.ID,
			Name:        m.Name,
			TLD:         tld,
			RegistrarID: m.RegistrarID,
			Created:     m.Created,
			Updated:     m.Updated,
			Expiry:      m.Expiry,
			Status:      model.StatusActive,
		}
		if m.Kind == MutSeed {
			d.Status = m.Status
			d.DeleteDay = m.DeleteDay
		}
		rec, err := sh.prepare(&d, h)
		if err != nil {
			return res, err
		}
		if m.ID == 0 {
			if m.ID, err = s.reserveID(); err != nil {
				return res, err
			}
			rec.id = uint32(m.ID)
		} else {
			// Atomic-max, not load-then-store: ApplyBatch applies shard
			// groups concurrently, and a plain racing store could leave the
			// allocator below the highest replayed ID.
			for {
				cur := s.nextID.Load()
				if m.ID <= cur || s.nextID.CompareAndSwap(cur, m.ID) {
					break
				}
			}
		}
		if m.Kind == MutCreate {
			// Creates mint a transfer code; seeds do not (SeedAt's contract).
			rec.setAuth(authCreated)
		}
		sh.insert(rec, h)
		res.tld = tld
		return res, nil

	case MutTouch, MutRenew, MutTransfer, MutSetState:
		r, ref := sh.tab.find(m.Name, h)
		if r == nil {
			return res, fmt.Errorf("%w: %q", ErrNotFound, m.Name)
		}
		res.from, res.sponsor = r.status(), int(r.registrar)
		// Convert everything the record will take before touching it, so a
		// refused record leaves the registration and its index entry alone.
		next, status := *r, r.status()
		var errUpdated, errField error
		if m.Kind != MutSetState || !m.Updated.IsZero() {
			next.updated, errUpdated = storedTime(m.Updated)
		}
		switch m.Kind {
		case MutRenew:
			next.expiry, errField = storedTime(m.Expiry)
			status = model.StatusActive
		case MutTransfer:
			next.registrar, errField = registrar32(m.RegistrarID)
			status = model.StatusActive
		case MutSetState:
			status = m.Status
			next.deleteDay, errField = packDay(m.DeleteDay)
		}
		if err := errors.Join(errUpdated, errField, next.setStatus(status)); err != nil {
			return res, fmt.Errorf("%w: %q", err, m.Name)
		}
		sh.refile(r, ref, next)
		if m.Kind == MutTransfer {
			sh.rotateAuth(r)
		}
		return res, nil

	case MutPurge:
		r, ref := sh.tab.find(m.Name, h)
		if r == nil {
			return res, fmt.Errorf("%w: %q", ErrNotFound, m.Name)
		}
		if res.ev, err = model.NewDeletionEvent(uint64(r.id), r.name(), m.Time, m.Rank); err != nil {
			return res, fmt.Errorf("%w: %w", errUnrepresentable, err)
		}
		res.from, res.sponsor = r.status(), int(r.registrar)
		// r is dead once its slot is freed (see table).
		sh.dueRemove(r, ref)
		sh.dropAuth(r)
		sh.tab.del(ref)
		if held != nil {
			*held = append(*held, purged{idx, res.ev})
			return res, nil
		}
		s.delMu.Lock()
		s.archiveLocked(res.ev)
		s.delMu.Unlock()
		return res, nil
	}
	return res, fmt.Errorf("unknown mutation kind %d", m.Kind)
}

// archiveLocked appends ev to its day's deletion archive. The caller holds
// delMu.
func (s *Store) archiveLocked(ev model.DeletionEvent) {
	day := simtime.DayOf(ev.Time())
	s.deletions[day] = append(s.deletions[day], ev)
}

// ApplyBatch replays a contiguous run of mutation records — a WAL replay
// window or a replication batch — acquiring each touched shard's lock once
// instead of once per record, the shard groups applied on up to workers
// goroutines. It is the only batched path: primary recovery, follower
// bootstrap, follower steady state and promotion all reach a shard through
// it (Apply stays as the one-record reference the differential tests hold it
// to).
//
// Equivalence with applying the records one at a time through Apply, at any
// worker count:
//
//   - Same-name records hash to the same shard, so they share a group and
//     keep their relative order; records on different shards commuted on the
//     live store too — they were only ever ordered by a lock race.
//   - The generation counter advances by the group size inside each shard's
//     critical section, so the batch ends at exactly the generation the
//     primary had after the same records — the property that makes a
//     replica's ETags comparable to the primary's.
//   - The ID allocator takes an atomic max (applyLocked).
//   - Deletion-archive order is observable (the archive is rank-ordered per
//     day), so purge events are collected with their batch positions and
//     appended in batch-position order.
//   - MutAddRegistrar and MutAddZone commit under their own table locks, not
//     a shard lock; they act as barriers — the groups before them flush, the
//     record applies inline — preserving their position in the stream
//     (domain records of a just-added zone must see it installed).
//
// What batching gives up is mid-batch cross-shard atomicity: a concurrent
// reader can observe one shard's group applied while another's is pending,
// a state the primary never exposed under that generation. Each domain is
// always at a prefix-consistent point of its own history, the window closes
// when the batch's remaining bumps land (invalidating any cache entry built
// inside it), and batch boundaries are group-commit boundaries — the same
// transient read-your-replica caveat every asynchronous replica has.
//
// An error mid-batch leaves the batch partially applied. Errors here mean
// the record stream is not a faithful log of a store's history (replication
// transport corruption, a diverged follower); the caller must treat the
// store as poisoned, not retry.
func (s *Store) ApplyBatch(ms []Mutation, workers int) error {
	if len(ms) == 1 {
		// A steady-state replication batch is often one commit.
		return s.Apply(ms[0])
	}
	for lo := 0; lo < len(ms); {
		hi := lo
		for hi < len(ms) && ms[hi].Kind != MutAddRegistrar && ms[hi].Kind != MutAddZone {
			hi++
		}
		if err := s.applyGroups(ms[lo:hi], workers); err != nil {
			return err
		}
		if hi < len(ms) {
			if err := s.Apply(ms[hi]); err != nil {
				return err
			}
			hi++
		}
		lo = hi
	}
	return nil
}

// applyGroups applies a run of domain records (no barrier kinds) grouped by
// shard: one lock acquisition and one generation add per touched shard.
func (s *Store) applyGroups(ms []Mutation, workers int) error {
	if len(ms) == 0 {
		return nil
	}
	order, start := s.groupByShard(len(ms), func(i int) string { return ms[i].Name })
	type result struct {
		purges []purged
		err    error
	}
	results := par.Do(workers, len(s.shards), func(si int) (res result) {
		idxs := order[start[si]:start[si+1]]
		if len(idxs) == 0 {
			return res
		}
		sh := &s.shards[si]
		sh.mu.Lock()
		defer sh.mu.Unlock()
		for _, i := range idxs {
			if _, err := s.applyLocked(sh, &ms[i], sh.tab.hash(ms[i].Name), &res.purges, i); err != nil {
				res.err = fmt.Errorf("registry: replay %v: %w", ms[i].Kind, err)
				return res
			}
		}
		// One add covering the whole group, inside the critical section: a
		// reader blocked on this shard wakes to a generation that already
		// covers everything it can now see, never a generation from the
		// middle of the group.
		s.gen.Add(uint64(len(idxs)))
		return res
	})
	var purges []purged
	for _, r := range results {
		if r.err != nil {
			return r.err
		}
		purges = append(purges, r.purges...)
	}
	if len(purges) == 0 {
		return nil
	}
	slices.SortFunc(purges, func(a, b purged) int { return cmp.Compare(a.idx, b.idx) })
	s.delMu.Lock()
	for _, p := range purges {
		s.archiveLocked(p.ev)
	}
	s.delMu.Unlock()
	return nil
}

// SnapshotDomain is one registration in a store snapshot and its transfer
// code (empty for a seeded domain); the store copies the code to keep it.
type SnapshotDomain struct {
	Domain   model.Domain
	AuthInfo []byte
}
