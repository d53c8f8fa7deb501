package journal

import (
	"bytes"

	"dropzero/internal/model"
	"dropzero/internal/par"
	"dropzero/internal/registry"
	"dropzero/internal/simtime"
	"dropzero/internal/zone"
)

// The snapshot oracle: a materialised copy of a store's durable state, taken
// through the exported SnapshotReader traversal, and the two-pass writer
// Journal.Snapshot had before it encoded straight from the store. The
// single-pass encode is compared against them.

// shardedSnapshot is a store's durable state with the registrations grouped
// by the capturing store's shard index, in slot order.
type shardedSnapshot struct {
	Gen        uint64
	NextID     uint64
	Registrars []model.Registrar
	Shards     [][]registry.SnapshotDomain
	Deletions  map[simtime.Day][]model.DeletionEvent
	Zones      []zone.Config
}

// captureSharded materialises the snapshot traversal under the store's
// read locks, as Journal.Snapshot encodes it.
func captureSharded(s *registry.Store) shardedSnapshot {
	st := shardedSnapshot{Deletions: make(map[simtime.Day][]model.DeletionEvent)}
	s.ReadSnapshot(func(r *registry.SnapshotReader) {
		st.Registrars, st.Zones = r.Registrars(), r.Zones()
		st.Shards = make([][]registry.SnapshotDomain, r.ShardCount())
		for i := range st.Shards {
			r.VisitShard(i,
				func(n int) { st.Shards[i] = make([]registry.SnapshotDomain, 0, n) },
				func(d *model.Domain, authInfo []byte) {
					st.Shards[i] = append(st.Shards[i], registry.SnapshotDomain{Domain: *d, AuthInfo: bytes.Clone(authInfo)})
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

// writeSnapshotV2 persists a materialised store copy as a snapshot file. It
// shares the section codec with snapImage.encode and nothing of its
// traversal.
func writeSnapshotV2(dir string, seq uint64, appState []byte, st *shardedSnapshot, workers int) (string, error) {
	img := snapImage{seq: seq}
	img.secs = par.Do(par.Workers(workers), len(st.Shards)+1, func(i int) []byte {
		if i == len(st.Shards) {
			return sealSection(appendDeletions(newSection(secDeletions, 0), st.Deletions))
		}
		b := newDomainSection(i, len(st.Shards[i]), 0)
		for k := range st.Shards[i] {
			b = appendDomain(b, &st.Shards[i][k].Domain, st.Shards[i][k].AuthInfo)
		}
		return sealSection(b)
	})
	img.meta = sealSection(appendMeta(newSection(secMeta, 0), &snapMeta{
		seq: seq, gen: st.Gen, nextID: st.NextID, appState: appState, registrars: st.Registrars,
		domainSections: len(st.Shards), deletionSections: 1, zones: st.Zones,
	}))
	return img.write(dir)
}
