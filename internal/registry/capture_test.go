package registry

import (
	"bytes"

	"dropzero/internal/model"
	"dropzero/internal/simtime"
	"dropzero/internal/zone"
)

// ShardedSnapshot is a full copy of the store's durable state with the
// registrations still grouped by the capturing store's shard index, in each
// shard's slot order (see VisitShard). Nothing in production builds one —
// the snapshot writer encodes straight from the SnapshotReader — it is the
// tests' oracle for what a snapshot must carry.
type ShardedSnapshot struct {
	Gen        uint64
	NextID     uint64
	Registrars []model.Registrar
	Shards     [][]SnapshotDomain
	Deletions  map[simtime.Day][]model.DeletionEvent
	Zones      []zone.Config // beyond the implicit default one
}

// CaptureSnapshotSharded materialises the snapshot traversal under the
// store's read locks (ReadSnapshot), so it is consistent under concurrent
// mutation.
func (s *Store) CaptureSnapshotSharded() ShardedSnapshot {
	st := ShardedSnapshot{
		Shards:    make([][]SnapshotDomain, len(s.shards)),
		Deletions: make(map[simtime.Day][]model.DeletionEvent),
	}
	s.ReadSnapshot(func(r *SnapshotReader) {
		st.Registrars, st.Zones = r.Registrars(), r.Zones()
		for i := range st.Shards {
			r.VisitShard(i,
				func(n int) { st.Shards[i] = make([]SnapshotDomain, 0, n) },
				func(d *model.Domain, authInfo []byte) {
					st.Shards[i] = append(st.Shards[i], SnapshotDomain{Domain: *d, AuthInfo: bytes.Clone(authInfo)})
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

// restoreCaptured loads a captured state into the empty store through the
// restore calls the snapshot reader makes, one InstallRestoredDomains per
// captured shard.
func (s *Store) restoreCaptured(st ShardedSnapshot) error {
	if err := s.RestoreZones(st.Zones); err != nil {
		return err
	}
	s.RestoreRegistrars(st.Registrars)
	for _, shard := range st.Shards {
		if err := s.InstallRestoredDomains(shard); err != nil {
			return err
		}
	}
	s.MergeRestoredDeletions(st.Deletions)
	s.FinishRestore(st.Gen, st.NextID)
	return nil
}
