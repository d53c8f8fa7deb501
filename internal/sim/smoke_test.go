package sim

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Days = 6
	cfg.Scale = 0.02
	return cfg
}

// studies holds study's runs by name.
var studies sync.Map

// study is the package's study fixture: Run(cfg), run once under name and
// shared by every test that only reads the finished study. A test that
// watches a run itself (its heap, its goroutines, its files) runs its own.
func study(t *testing.T, name string, cfg Config) *Result {
	t.Helper()
	run, _ := studies.LoadOrStore(name, sync.OnceValues(func() (*Result, error) { return Run(cfg) }))
	res, err := run.(func() (*Result, error))()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRunLeavesNothingPinned: when Run returns, the store and the servers
// it stood up are garbage. What the caller holds after one collection — the
// result and nothing else — must not shrink materially on a second one: a
// component that stays reachable one cycle longer (a sync.Pool inside a
// server, say) shows up as exactly that gap.
func TestRunLeavesNothingPinned(t *testing.T) {
	res := run(t, smallConfig())
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
