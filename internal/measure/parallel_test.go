package measure

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"slices"
	"testing"

	"dropzero/internal/model"
	"dropzero/internal/rdap"
	"dropzero/internal/registry"
)

// brokenSponsorCfg makes one sponsor's RDAP records 500 so the WHOIS
// fallback runs concurrently with the RDAP lookups.
func brokenSponsorCfg() rdap.ServerConfig {
	return rdap.ServerConfig{FailRegistrars: map[int]int{1727: http.StatusInternalServerError}}
}

// buildWorld seeds n pending .com domains (every 7th under the broken-RDAP
// sponsor), collects them, runs the Drop once, and re-registers every name
// where rereg(i) says so. It returns the number re-registered.
func buildWorld(t *testing.T, e *env, n int, rereg func(i int) bool) int {
	t.Helper()
	for i := 0; i < n; i++ {
		sponsor := 1000
		if i%7 == 0 {
			sponsor = 1727
		}
		e.seedPending(t, fmt.Sprintf("race%04d.com", i), sponsor, e.day)
	}
	e.collect(t, e.day)
	runner := registry.NewDropRunner(e.store, registry.DropConfig{
		StartHour: 19, BaseRatePerSec: 1000, RateJitter: 0, DayRateSpread: 0,
	})
	if _, err := runner.Run(e.day, rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	reregs := 0
	for i := 0; i < n; i++ {
		if !rereg(i) {
			continue
		}
		name := fmt.Sprintf("race%04d.com", i)
		at := e.day.At(19, 0, 1+i%120)
		if _, err := e.store.CreateAt(name, 2000, 1, at); err != nil {
			t.Fatal(err)
		}
		reregs++
	}
	e.clock.Set(e.day.AddDays(60).At(12, 0, 0))
	return reregs
}

// TestPipelineParallelLookupsRace exercises CollectDaily and Finalize with a
// wide worker pool over in-proc RDAP and TCP WHOIS across many domains. Its
// value is under -race (run in CI): any unsynchronised Pipeline, rdap.Client
// or whois.Client state shows up here.
func TestPipelineParallelLookupsRace(t *testing.T) {
	e := newEnv(t, brokenSponsorCfg(), true)
	e.pipe.Parallelism = 16
	e.pipe.WHOIS.PoolSize = 16
	t.Cleanup(func() { e.pipe.WHOIS.Close() })
	const n = 120
	reregs := buildWorld(t, e, n, func(i int) bool { return i%3 == 0 })
	obs := e.finalize(t)
	if len(obs) != n {
		t.Fatalf("observations = %d, want %d", len(obs), n)
	}
	for i := 1; i < len(obs); i++ {
		if obs[i-1].Name() >= obs[i].Name() {
			t.Fatalf("Finalize output not sorted: %q before %q", obs[i-1].Name(), obs[i].Name())
		}
	}
	st := e.pipe.Stats()
	if st.Lookups != n || st.Reregistered != reregs || st.NotReregistered != n-reregs {
		t.Fatalf("stats = %+v (want %d reregs)", st, reregs)
	}
	if st.WHOISFallbacks == 0 || st.FallbackFailed != 0 {
		t.Fatalf("fallback not exercised: %+v", st)
	}
}

// TestPipelineParallelMatchesSequential is the package-level determinism
// check: the same world measured with 1 worker and with 8 must yield equal
// observations and stats.
func TestPipelineParallelMatchesSequential(t *testing.T) {
	run := func(parallelism int) ([]model.Observation, Stats) {
		e := newEnv(t, brokenSponsorCfg(), true)
		e.pipe.Parallelism = parallelism
		t.Cleanup(func() { e.pipe.WHOIS.Close() })
		const n = 60
		buildWorld(t, e, n, func(i int) bool { return i%2 == 0 })
		obs := e.finalize(t)
		return obs, e.pipe.Stats()
	}
	seqRows, seqStats := run(1)
	parRows, parStats := run(8)
	if len(seqRows) == 0 || !slices.EqualFunc(seqRows, parRows, model.Observation.Equal) {
		t.Fatal("observations differ between parallelism 1 and 8")
	}
	if seqStats != parStats {
		t.Fatalf("stats differ:\nseq: %+v\npar: %+v", seqStats, parStats)
	}
}

// TestPipelineHonoursContextCancel verifies that a cancelled context fails
// lookups instead of hanging: the collected priors stay nil and are counted
// as fallback failures, matching the sequential error semantics.
func TestPipelineHonoursContextCancel(t *testing.T) {
	e := newEnv(t, brokenSponsorCfg(), true)
	e.pipe.Parallelism = 4
	t.Cleanup(func() { e.pipe.WHOIS.Close() })
	e.seedPending(t, "cancelled.com", 1727, e.day)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := e.pipe.CollectDaily(ctx, e.day); err == nil {
		// The list fetch itself may fail on the cancelled context, which is
		// also acceptable; when it does not, the lookup must have failed.
		if st := e.pipe.Stats(); st.Lookups == 1 && st.FallbackFailed != 1 {
			t.Fatalf("cancelled lookup succeeded: %+v", st)
		}
	}
}
