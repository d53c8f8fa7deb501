package sim

import (
	"bytes"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"testing"

	"dropzero/internal/model"
	"dropzero/internal/simtime"
)

// TestRunIdenticalAcrossShardCounts is the study-level differential test for
// registry store sharding: over several seeds, a full study run against the
// legacy single-lock store (Shards=1) and the same study against 4- and
// 16-shard stores must produce byte-identical CSV datasets, identical
// deletion event logs and identical pipeline stats. Sharding may only change
// lock contention, never output.
func TestRunIdenticalAcrossShardCounts(t *testing.T) {
	for _, seed := range []int64{1, 42, 20180108} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			cfg := DefaultConfig()
			cfg.Seed = seed
			cfg.Days = 3
			cfg.Scale = 0.01
			cfg.FinalizeAfterDays = 57

			run := func(shards int) (*Result, []byte) {
				c := cfg
				c.Shards = shards
				return runCSV(t, c)
			}
			singleRes, singleCSV := run(1)
			if len(singleRes.Observations) == 0 {
				t.Fatal("single-shard run produced no observations")
			}
			if sameDeletions(singleRes.Deletions, renamedPastFirstByte(t, singleRes.Deletions)) {
				t.Fatal("the deletion log comparison misses a name that differs past its first byte")
			}
			for _, shards := range []int{4, 16} {
				res, csv := run(shards)
				if !bytes.Equal(singleCSV, csv) {
					t.Fatalf("shards=%d: CSV datasets differ: %d bytes vs %d bytes", shards, len(singleCSV), len(csv))
				}
				if !sameDeletions(singleRes.Deletions, res.Deletions) {
					t.Fatalf("shards=%d: deletion event logs differ: %d days vs %d days", shards, len(singleRes.Deletions), len(res.Deletions))
				}
				if !reflect.DeepEqual(singleRes.PipelineStats, res.PipelineStats) {
					t.Fatalf("shards=%d: pipeline stats differ:\nshards=1: %+v\nshards=%d: %+v", shards, singleRes.PipelineStats, shards, res.PipelineStats)
				}
			}
		})
	}
}

// sameDeletions reports whether two deletion logs hold the same events, day
// by day and in the same order.
func sameDeletions(a, b map[simtime.Day][]model.DeletionEvent) bool {
	return maps.EqualFunc(a, b, func(x, y []model.DeletionEvent) bool {
		return slices.EqualFunc(x, y, model.DeletionEvent.Equal)
	})
}

// renamedPastFirstByte is a copy of dels in which the first event of the
// earliest day is named as before except for the name's last byte: a
// comparison of deletion logs must tell the two apart.
func renamedPastFirstByte(t *testing.T, dels map[simtime.Day][]model.DeletionEvent) map[simtime.Day][]model.DeletionEvent {
	t.Helper()
	var first simtime.Day
	for d, evs := range dels {
		if len(evs) > 0 && (first == (simtime.Day{}) || d.Before(first)) {
			first = d
		}
	}
	if first == (simtime.Day{}) {
		t.Fatal("no deletion to rename")
	}
	evs := slices.Clone(dels[first])
	name := []byte(evs[0].Name())
	name[len(name)-1] ^= 1
	renamed, err := model.NewDeletionEvent(evs[0].DomainID(), string(name), evs[0].Time(), evs[0].Rank())
	if err != nil {
		t.Fatal(err)
	}
	evs[0] = renamed
	out := maps.Clone(dels)
	out[first] = evs
	return out
}
