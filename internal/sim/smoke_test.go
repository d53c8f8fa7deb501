package sim

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"dropzero/internal/core"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Days = 6
	cfg.Scale = 0.02
	return cfg
}

func TestRunSmoke(t *testing.T) {
	res, err := Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Observations) == 0 {
		t.Fatal("no observations")
	}
	total := 0
	rereg := 0
	zero := 0
	sameDay := 0
	for _, o := range res.Observations {
		total++
		if o.Reregistered() {
			rereg++
			if o.SameDayRereg() {
				sameDay++
			}
		}
	}
	days, skipped := core.AnalyzeAll(res.Observations, core.DefaultEnvelopeConfig())
	for _, d := range AllZeroDelays(days) {
		_ = d
		zero++
	}
	t.Logf("total=%d rereg=%.4f sameday=%.4f zero=%.4f skippedDays=%d stats=%+v",
		total, frac(rereg, total), frac(sameDay, total), frac(zero, total), skipped, res.PipelineStats)
}

// AllZeroDelays is a test helper returning re-registrations at exactly 0 s.
func AllZeroDelays(days []*core.DayAnalysis) []core.DelayResult {
	var out []core.DelayResult
	for _, d := range core.AllDelays(days) {
		if d.Delay == 0 {
			out = append(out, d)
		}
	}
	return out
}

func frac(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func TestRunDeterministic(t *testing.T) {
	cfg := smallConfig()
	cfg.Days = 2
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Observations) != len(b.Observations) {
		t.Fatalf("observation counts differ: %d vs %d", len(a.Observations), len(b.Observations))
	}
	for i := range a.Observations {
		if oa, ob := a.Observations[i], b.Observations[i]; !oa.Equal(ob) {
			t.Fatalf("observation %d differs: %+v vs %+v", i, oa, ob)
		}
	}
	_ = time.Second
}

// TestRunLeavesNothingPinned: when Run returns, the store and the servers
// it stood up are garbage. What the caller holds after one collection — the
// result and nothing else — must not shrink materially on a second one: a
// component that stays reachable one cycle longer (a sync.Pool inside a
// server, say) shows up as exactly that gap.
func TestRunLeavesNothingPinned(t *testing.T) {
	res, err := Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	heapAfterGC := func() float64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	}
	first, second := heapAfterGC(), heapAfterGC()
	t.Logf("live heap %.2f MB after one GC, %.2f MB after two", first/(1<<20), second/(1<<20))
	if first > second*1.05 {
		t.Errorf("%.2f MB of the %.2f MB held after Run became collectable only on a second GC",
			(first-second)/(1<<20), first/(1<<20))
	}
	runtime.KeepAlive(res)
}

// TestMemoryOnlyRunOpensNoSocket: a memory-only study binds every client —
// the pending-delete list, RDAP, the WHOIS fallback and the oracle — to its
// server in-process, so a Run has no accept loop going, neither a
// serve.Conns nor a serve.HTTP one. Goroutine dumps taken while it runs say
// so; at least one of them must have caught the pipeline collecting, or
// they prove nothing.
func TestMemoryOnlyRunOpensNoSocket(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		_, err := Run(smallConfig())
		done <- err
	}()
	buf := make([]byte, 1<<20)
	sawCollect := false
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			if !sawCollect {
				t.Fatal("no dump caught measure.(*Pipeline).CollectDaily: the dumps prove nothing")
			}
			return
		case <-time.After(2 * time.Millisecond):
		}
		dump := string(buf[:runtime.Stack(buf, true)])
		sawCollect = sawCollect || strings.Contains(dump, "measure.(*Pipeline).CollectDaily")
		for _, loop := range []string{"serve.(*Conns).accept", "serve.(*HTTP).serve"} {
			if strings.Contains(dump, loop) {
				t.Fatalf("memory-only Run has %s running", loop)
			}
		}
	}
}
