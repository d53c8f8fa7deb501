package registry_test

import (
	"runtime"
	"strconv"
	"testing"

	"dropzero/internal/journal"
	"dropzero/internal/registry"
)

// restoredBytesPerDomainBudget is the live-heap ceiling for one registration
// of a store recovered from a snapshot: 63.4 B measured at 1 shard, 68.8 at
// 8. The restore spells names into 64 KiB blocks, one run per snapshot
// section, and each section's last block is part-empty — a constant per
// section, 3 B/domain when 8 sections share 100 k names.
const restoredBytesPerDomainBudget = 74

// TestRestoredBytesPerDomainBudget is TestBytesPerDomainBudget for a
// restored store: the same 100 k status mix, snapshotted and recovered into
// a fresh store through the journal's encode → decode → install — what
// journal.Open and a follower's bootstrap build.
func TestRestoredBytesPerDomainBudget(t *testing.T) {
	const population = 100_000
	for _, shards := range []int{1, 8} {
		t.Run(strconv.Itoa(shards)+"shards", func(t *testing.T) {
			dir := t.TempDir()
			opts := journal.Options{Dir: dir, Mode: journal.ModeAsync}
			src, clock := registry.NewTestStore(t, shards, 2)
			j, _, err := journal.Open(src, opts)
			if err != nil {
				t.Fatal(err)
			}
			registry.SeedStatusMix(t, src, clock.Now(), population)
			if err := j.Snapshot(nil); err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}

			s := registry.NewStoreWithShards(clock, shards)
			before := registry.LiveHeap()
			if j, _, err = journal.Open(s, opts); err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			per := (float64(registry.LiveHeap()) - float64(before)) / population
			runtime.KeepAlive(s)
			t.Logf("%d shards: %.1f B/domain restored", shards, per)
			if per > restoredBytesPerDomainBudget {
				t.Fatalf("restored store costs %.1f B/domain, budget %d", per, restoredBytesPerDomainBudget)
			}
			if s.Count() != population {
				t.Fatalf("Count = %d, want %d", s.Count(), population)
			}
		})
	}
}
