package registry

import (
	"fmt"
	"slices"
	"sort"

	"dropzero/internal/model"
	"dropzero/internal/simtime"
	"dropzero/internal/zone"
)

// This file is the parallel recovery seam: the per-shard snapshot
// traversal, a restore API whose pieces are safe for concurrent use, and a
// per-shard replay entry point. The journal's v2 snapshot codec encodes one
// section per shard and its pipelined WAL replayer partitions records by the
// same name hash the live store routes with, so every recovery worker locks
// exactly the shard it is filling. The flat SnapshotState shape remains for
// the v1 gob reader and the replay differential tests.

// ShardedSnapshot is a full copy of the store's durable state with the
// registrations still grouped by the capturing store's shard index, one
// group per snapshot section. Shards has ShardCount() entries; entry order
// within a shard is the capturing shard's slot order: reproducible for
// equal operation histories from an empty store, but not a contract between
// a primary and a replica restored from a snapshot (restore re-routes every
// domain by name hash and packs the slots purges left empty).
type ShardedSnapshot struct {
	Gen        uint64
	NextID     uint64
	Registrars []model.Registrar
	Shards     [][]SnapshotDomain
	Deletions  map[simtime.Day][]model.DeletionEvent
	// Zones are the zones installed beyond the implicit default one (see
	// SnapshotState.Zones).
	Zones []zone.Config
}

// Flatten converts to the flat SnapshotState shape (shard sections
// concatenated in index order) the v1 gob format holds.
func (st *ShardedSnapshot) Flatten() SnapshotState {
	return SnapshotState{
		Gen:        st.Gen,
		NextID:     st.NextID,
		Registrars: st.Registrars,
		Domains:    slices.Concat(st.Shards...),
		Deletions:  st.Deletions,
		Zones:      st.Zones,
	}
}

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
func (r *SnapshotReader) Zones() []zone.Config { return r.s.ExtraZones() }

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
// per registration in slot order (see ShardedSnapshot), all under that
// shard's read lock. d and authInfo (the transfer code, empty when none was
// minted) are reused between calls and valid only during one.
func (r *SnapshotReader) VisitShard(si int, begin func(n int), each func(d *model.Domain, authInfo []byte)) {
	sh := &r.s.shards[si]
	if !r.quiesced {
		sh.mu.RLock()
		defer sh.mu.RUnlock()
	}
	begin(sh.tab.len())
	var (
		d   model.Domain
		buf [authInfoLen]byte
	)
	sh.tab.each(func(rec *record, _ uint32) bool {
		d = rec.domain()
		each(&d, sh.appendAuthInfo(buf[:0], rec))
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

// CaptureSnapshotSharded materialises the traversal as a ShardedSnapshot,
// without quiesce (see ReadSnapshot for what that means under concurrent
// mutation). The snapshot writer does not go through it; it is the oracle
// the writer is tested against.
func (s *Store) CaptureSnapshotSharded() ShardedSnapshot {
	st := ShardedSnapshot{
		Shards:    make([][]SnapshotDomain, len(s.shards)),
		Deletions: make(map[simtime.Day][]model.DeletionEvent),
	}
	s.ReadSnapshot(false, func(r *SnapshotReader) {
		st.Registrars, st.Zones = r.Registrars(), r.Zones()
		for i := range st.Shards {
			r.VisitShard(i,
				func(n int) { st.Shards[i] = make([]SnapshotDomain, 0, n) },
				func(d *model.Domain, authInfo []byte) {
					st.Shards[i] = append(st.Shards[i], SnapshotDomain{Domain: *d, AuthInfo: string(authInfo)})
				})
		}
		r.VisitDeletions(func(dels map[simtime.Day][]model.DeletionEvent) {
			for day, evs := range dels {
				st.Deletions[day] = append([]model.DeletionEvent(nil), evs...)
			}
		})
		st.Gen, st.NextID = r.Counters()
	})
	return st
}

// RestoreRegistrars installs the registrar table during recovery, replacing
// nothing (the store is empty). Call once, before serving.
func (s *Store) RestoreRegistrars(rs []model.Registrar) {
	s.regMu.Lock()
	for _, r := range rs {
		s.registrars[r.IANAID] = r
	}
	s.regMu.Unlock()
}

// InstallRestoredDomains loads one batch of snapshot registrations into a
// store under recovery. It is safe for concurrent use — parallel restore
// workers each call it with their own decoded section — because it groups
// the batch by the *receiving* store's name hash and takes each shard's
// write lock once per group. The writer's shard layout is irrelevant: a
// snapshot captured at one shard count restores correctly at any other.
// Duplicate names (within the batch or across batches) mean the snapshot is
// not a faithful store copy and fail loudly.
func (s *Store) InstallRestoredDomains(ds []SnapshotDomain) error {
	// Counting sort by receiving shard: order[start[si]:start[si+1]] are the
	// batch indexes routed to shard si, in batch order.
	start := make([]int, len(s.shards)+1)
	for i := range ds {
		start[s.shardIndex(ds[i].Domain.Name)+1]++
	}
	for si := range s.shards {
		start[si+1] += start[si]
	}
	order := make([]int32, len(ds))
	next := slices.Clone(start[:len(s.shards)])
	for i := range ds {
		si := s.shardIndex(ds[i].Domain.Name)
		order[next[si]] = int32(i)
		next[si]++
	}
	for si := range s.shards {
		idxs := order[start[si]:start[si+1]]
		if len(idxs) == 0 {
			continue
		}
		sh := &s.shards[si]
		sh.mu.Lock()
		if sh.tab.len() == 0 {
			// The first batch a shard receives is usually its only one
			// (a section per writer shard): size the name index for it up
			// front instead of growing it by splitting.
			sh.tab.init(sh.tab.seed, len(idxs))
		}
		for _, i := range idxs {
			r, err := sh.insert(&ds[i].Domain)
			if err != nil {
				sh.mu.Unlock()
				return fmt.Errorf("registry: restore: %w", err)
			}
			sh.setAuthInfo(r, ds[i].AuthInfo)
		}
		sh.mu.Unlock()
	}
	return nil
}

// MergeRestoredDeletions appends snapshot deletion-archive days into the
// store. Safe for concurrent use (the archive lock serialises); each day's
// events must arrive in archive order within one call, and a given day must
// come from a single caller (the v2 codec keeps the whole archive in one
// section, so this holds trivially).
func (s *Store) MergeRestoredDeletions(dels map[simtime.Day][]model.DeletionEvent) {
	s.delMu.Lock()
	for day, evs := range dels {
		s.deletions[day] = append(s.deletions[day], evs...)
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

// SeqMutation pairs a replayed mutation with its WAL sequence number, so
// per-shard appliers can reassemble globally ordered artefacts (the
// deletion archive) after applying out of global order.
type SeqMutation struct {
	Seq uint64
	M   Mutation
}

// ReplayPurge is one Drop deletion produced by replay, tagged with the WAL
// position of its purge record.
type ReplayPurge struct {
	Seq uint64
	Ev  model.DeletionEvent
}

// ShardIndexFor exposes the store's name-to-shard routing for replay
// partitioning: the parallel replayer must group records exactly the way
// the store's own mutators serialised them, and this is that function.
func (s *Store) ShardIndexFor(name string) int {
	return int(s.shardIndex(name))
}

// ApplyShardSequence replays a run of domain mutations that all route to
// shard si (per ShardIndexFor — the caller owns that invariant), in
// ascending sequence order, under one acquisition of that shard's write
// lock. It is the parallel-replay sibling of ApplyBatch's per-shard groups:
// concurrent callers touching *different* shards reproduce sequential
// replay exactly, because every pair of same-name records shares a shard
// and therefore a caller, and the generation counter advances by the run
// length regardless of interleaving. Purge events are returned with their
// sequence numbers; the caller rebuilds the deletion archive in global
// order with AppendReplayPurges once replay completes. MutAddRegistrar and
// MutAddZone are rejected — those records commit under their own leaf locks
// and act as replay barriers, applied inline via Apply.
//
// An error leaves the run partially applied (generation covers the applied
// prefix); as with ApplyBatch, errors mean the log is not a faithful
// history and the caller must discard the store.
func (s *Store) ApplyShardSequence(si int, ms []SeqMutation) ([]ReplayPurge, error) {
	if len(ms) == 0 {
		return nil, nil
	}
	if si < 0 || si >= len(s.shards) {
		return nil, fmt.Errorf("registry: replay: shard index %d out of range", si)
	}
	var (
		purges  []ReplayPurge
		applied int
		err     error
	)
	sh := &s.shards[si]
	sh.mu.Lock()
	for i := range ms {
		m := &ms[i].M
		if m.Kind == MutAddRegistrar || m.Kind == MutAddZone {
			err = fmt.Errorf("registry: replay seq %d: %s in shard sequence", ms[i].Seq, m.Kind)
			break
		}
		ev, isPurge, aerr := s.applyDomainLocked(sh, m)
		if aerr != nil {
			err = aerr
			break
		}
		if isPurge {
			purges = append(purges, ReplayPurge{Seq: ms[i].Seq, Ev: ev})
		}
		applied++
	}
	s.gen.Add(uint64(applied))
	sh.mu.Unlock()
	return purges, err
}

// AppendReplayPurges rebuilds the deletion archive from the purge events
// the per-shard appliers collected: sorted by WAL sequence number, the
// events land in exactly the order sequential replay would have appended
// them (the archive's per-day rank order is observable through dropscope).
// Call once, after every applier has finished.
func (s *Store) AppendReplayPurges(ps []ReplayPurge) {
	sort.Slice(ps, func(a, b int) bool { return ps[a].Seq < ps[b].Seq })
	s.delMu.Lock()
	for _, p := range ps {
		day := simtime.DayOf(p.Ev.Time)
		s.deletions[day] = append(s.deletions[day], p.Ev)
	}
	s.delMu.Unlock()
}
