package registry

import (
	"fmt"
	"math"

	"dropzero/internal/model"
	"dropzero/internal/simtime"
	"dropzero/internal/zone"
)

// This file is the parallel recovery seam: the per-shard snapshot traversal
// and a restore API whose pieces are safe for concurrent use. The journal's
// v2 snapshot codec encodes one section per shard, so every restore worker
// locks exactly the shard it is filling (WAL replay reaches shards through
// ApplyBatch, journal.go).

// SnapshotReader is the store's one snapshot traversal: it hands a snapshot
// writer the durable state piece by piece — no copy of the store is built.
// Its methods are safe for concurrent use, so a writer may visit distinct
// shards from distinct goroutines. Callbacks run under store locks and must
// not call back into the store.
type SnapshotReader struct {
	s *Store
	// quiesced: ReadSnapshot holds regMu and every shard read-locked, so
	// the methods take no lock of their own.
	quiesced bool
}

// ReadSnapshot runs fn with a reader over the store's durable state.
//
// Without quiesce each reader method locks what it visits for its own
// duration only — the traversal never stops the world, and is NOT by itself
// consistent under concurrent mutation: the caller brackets fn with two
// Generation() reads and discards what it built unless they match (the
// read-render-reread discipline the response caches use), which proves no
// mutation committed in between.
//
// With quiesce the registrar table and every shard stay read-locked until
// fn returns, so no mutation can commit anywhere in the store (readers are
// unaffected — mutators queue behind the held read locks). Because every
// journal append happens inside a mutating critical section, a WAL position
// read inside fn identifies exactly the last record the traversal contains.
// Lock order is regMu < shards (ascending index) < delMu, consistent with
// every other path (mutators take a single shard lock, and only after any
// regMu use is finished; purge takes delMu inside its shard critical
// section), so the quiesce introduces no lock-order cycle. It is the
// snapshotter's fallback when sustained write load keeps defeating the
// optimistic traversal, not a hot-path API.
func (s *Store) ReadSnapshot(quiesce bool, fn func(*SnapshotReader)) {
	if quiesce {
		s.regMu.RLock()
		defer s.regMu.RUnlock()
		for i := range s.shards {
			s.shards[i].mu.RLock()
			defer s.shards[i].mu.RUnlock()
		}
	}
	fn(&SnapshotReader{s: s, quiesced: quiesce})
}

// ShardCount is the number of shards VisitShard accepts.
func (r *SnapshotReader) ShardCount() int { return len(r.s.shards) }

// Zones returns the zones installed beyond the implicit default one.
func (r *SnapshotReader) Zones() []zone.Config { return r.s.Zones()[1:] }

// Registrars returns the accreditation list in ascending IANA ID order.
func (r *SnapshotReader) Registrars() []model.Registrar {
	if r.quiesced {
		return r.s.registrarsLocked()
	}
	return r.s.Registrars()
}

// Counters returns the generation counter and the ID allocator. Read them
// after the shards: an optimistic traversal that passes its generation
// check saw no mutation, and a quiesced one cannot.
func (r *SnapshotReader) Counters() (gen, nextID uint64) {
	return r.s.gen.Load(), r.s.nextID.Load()
}

// VisitShard calls begin with shard si's registration count, then each once
// per registration in slot order, all under that shard's read lock. Slot
// order is reproducible for equal operation histories from an empty store,
// but not a contract between a primary and a replica restored from a
// snapshot (restore re-routes every domain by name hash and packs the slots
// purges left empty). d and authInfo (the transfer code, empty when none was
// minted) are reused between calls and valid only during one.
func (r *SnapshotReader) VisitShard(si int, begin func(n int), each func(d *model.Domain, authInfo []byte)) {
	r.visit(si, math.MaxInt, begin, each)
}

// SampleShard is VisitShard over about k of the shard's registrations,
// evenly spaced in slot order: what a writer sizes its buffer from before
// VisitShard fills it. Slots fill oldest first, so the first k would be the
// shard's oldest registrations — the shortest object IDs and numbered names.
func (r *SnapshotReader) SampleShard(si, k int, each func(d *model.Domain, authInfo []byte)) {
	r.visit(si, k, func(int) {}, each)
}

// visit walks shard si under its read lock, calling each for about sample
// of its registrations, evenly spaced — for all of them when it has no more.
func (r *SnapshotReader) visit(si, sample int, begin func(n int), each func(d *model.Domain, authInfo []byte)) {
	sh := &r.s.shards[si]
	if !r.quiesced {
		sh.mu.RLock()
		defer sh.mu.RUnlock()
	}
	n := sh.tab.len()
	begin(n)
	step := max(1, n/sample)
	var (
		d   model.Domain
		buf [authInfoLen]byte
	)
	i, next := 0, step/2
	sh.tab.each(func(rec *record, _ uint32) bool {
		if i == next {
			d = rec.domain()
			each(&d, sh.appendAuthInfo(buf[:0], rec))
			next += step
		}
		i++
		return true
	})
}

// VisitDeletions calls fn with the deletion archive under its lock; fn must
// not retain the map or its slices.
func (r *SnapshotReader) VisitDeletions(fn func(map[simtime.Day][]model.DeletionEvent)) {
	r.s.delMu.Lock()
	defer r.s.delMu.Unlock()
	fn(r.s.deletions)
}

// RestoreRegistrars installs the registrar table during recovery, replacing
// nothing (the store is empty). Call once, before serving.
func (s *Store) RestoreRegistrars(rs []model.Registrar) {
	s.regMu.Lock()
	s.addRegistrarsLocked(rs...)
	s.regMu.Unlock()
}

// InstallRestoredDomains loads one batch of snapshot registrations into a
// store under recovery. It is safe for concurrent use — parallel restore
// workers each call it with their own decoded section — because it groups
// the batch by the *receiving* store's name hash and takes each shard's
// write lock once per group. The writer's shard layout is irrelevant: a
// snapshot captured at one shard count restores correctly at any other.
// Duplicate names (within the batch or across batches), and names a live
// create would refuse (not lower-case LDH, or under a TLD no restored zone
// operates), mean the snapshot is not a faithful store copy and fail loudly.
// Names are checked before the batch is grouped and any lock is taken, so a
// batch with a bad name installs nothing. A registration the record cannot
// hold reports that before its name, as it always has.
func (s *Store) InstallRestoredDomains(ds []SnapshotDomain) error {
	for i := range ds {
		d := &ds[i].Domain
		if _, _, err := s.splitName(d.Name); err != nil {
			if _, recErr := newRecord(d); recErr != nil {
				err = recErr
			}
			return fmt.Errorf("registry: restore: %w", err)
		}
	}
	order, start := s.groupByShard(len(ds), func(i int) string { return ds[i].Domain.Name })
	for si := range s.shards {
		sh := &s.shards[si]
		sh.mu.Lock()
		for _, i := range order[start[si]:start[si+1]] {
			d := &ds[i].Domain
			h := sh.tab.hash(d.Name)
			rec, err := sh.prepare(d, h)
			if err != nil {
				sh.mu.Unlock()
				return fmt.Errorf("registry: restore: %w", err)
			}
			sh.setAuthInfo(sh.insert(rec, h), ds[i].AuthInfo)
		}
		sh.mu.Unlock()
	}
	return nil
}

// MergeRestoredDeletions appends snapshot deletion-archive days into the
// store, taking over the slice of a day the archive lacks. Safe for
// concurrent use (the archive lock serialises); each day's events must
// arrive in archive order within one call, and a given day from a single
// caller (the codec keeps the whole archive in one section).
func (s *Store) MergeRestoredDeletions(dels map[simtime.Day][]model.DeletionEvent) {
	s.delMu.Lock()
	for day, evs := range dels {
		if prev := s.deletions[day]; len(prev) != 0 {
			evs = append(prev, evs...)
		}
		s.deletions[day] = evs
	}
	s.delMu.Unlock()
}

// FinishRestore seals a restore: installs the ID allocator and generation
// counter captured with the snapshot. Call after every InstallRestoredDomains
// worker has returned and before WAL replay starts.
func (s *Store) FinishRestore(gen, nextID uint64) {
	s.nextID.Store(nextID)
	s.gen.Store(gen)
}
