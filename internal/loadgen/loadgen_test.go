package loadgen

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"
)

// runOne is the single-item RunMix: every request goes through fn.
func runOne(t *testing.T, workers, total int, fn func(i int) error) Result {
	t.Helper()
	res, err := RunMix(workers, total, []MixItem{{Name: "only", Weight: 1, Fn: fn}})
	if err != nil {
		t.Fatal(err)
	}
	return res.Combined
}

func TestRunCoversEveryIndexOnce(t *testing.T) {
	var mu sync.Mutex
	seen := make(map[int]int)
	res := runOne(t, 8, 1000, func(i int) error {
		mu.Lock()
		seen[i]++
		mu.Unlock()
		return nil
	})
	if res.Requests != 1000 || res.Errors != 0 {
		t.Fatalf("result = %+v", res)
	}
	if len(seen) != 1000 {
		t.Fatalf("distinct indexes = %d", len(seen))
	}
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("index %d issued %d times", i, n)
		}
	}
	if res.RPS() <= 0 {
		t.Fatalf("RPS = %v", res.RPS())
	}
	if res.P50() <= 0 || res.P50() > res.P95() || res.P95() > res.P99() {
		t.Fatalf("percentiles not positive and monotone: p50=%v p95=%v p99=%v", res.P50(), res.P95(), res.P99())
	}
}

func TestPercentileNearestRank(t *testing.T) {
	lat := make([]time.Duration, 100)
	for i := range lat {
		lat[i] = time.Duration(i+1) * time.Millisecond
	}
	r := Collect(lat, 0, 0, nil)
	cases := []struct {
		p    float64
		want time.Duration // exact nearest-rank value
	}{
		{50, 50 * time.Millisecond},
		{95, 95 * time.Millisecond},
		{99, 99 * time.Millisecond},
	}
	for _, c := range cases {
		got := r.Percentile(c.p)
		// The histogram promises the exact nearest-rank value within one
		// bucket width (here the log region: ≤6.25 % of the value).
		if tol := histWidth(histIndex(c.want)); got < c.want-tol || got > c.want {
			t.Errorf("Percentile(%v) = %v, want %v within %v", c.p, got, c.want, tol)
		}
	}
	// The extremes are tracked exactly, not bucketed.
	if got := r.Percentile(100); got != 100*time.Millisecond {
		t.Errorf("Percentile(100) = %v, want exact max 100ms", got)
	}
	if got := r.Percentile(1); got != 1*time.Millisecond {
		t.Errorf("Percentile(1) = %v, want exact min 1ms", got)
	}
	for _, p := range []float64{0, 101} {
		if got := r.Percentile(p); got != 0 {
			t.Errorf("Percentile(%v) = %v, want 0", p, got)
		}
	}
	if got := (Result{}).P99(); got != 0 {
		t.Errorf("empty Result P99 = %v, want 0", got)
	}
}

func TestRunCountsErrors(t *testing.T) {
	res := runOne(t, 4, 100, func(i int) error {
		if i%10 == 0 {
			return errors.New("boom")
		}
		return nil
	})
	if res.Errors != 10 {
		t.Fatalf("errors = %d, want 10", res.Errors)
	}
}

func TestRunClampsArguments(t *testing.T) {
	calls := 0
	res := runOne(t, 0, 0, func(i int) error { calls++; return nil })
	if res.Requests != 1 || calls != 1 {
		t.Fatalf("requests = %d, calls = %d", res.Requests, calls)
	}
}

type codedErr struct{ code int }

func (e *codedErr) Error() string   { return fmt.Sprintf("code %d", e.code) }
func (e *codedErr) ResultCode() int { return e.code }

func TestP999NeedsAThousandSamples(t *testing.T) {
	lat := make([]time.Duration, 1000)
	for i := range lat {
		lat[i] = time.Duration(i+1) * time.Microsecond
	}
	r := Collect(slices.Clone(lat), 0, 0, nil)
	if got := r.P999(); got != 999*time.Microsecond {
		t.Fatalf("P999 = %v, want 999µs", got)
	}
	// Below 1000 samples nearest-rank collapses P999 onto the max.
	small := Collect(lat[:100], 0, 0, nil)
	if got := small.P999(); got != 100*time.Microsecond {
		t.Fatalf("small-sample P999 = %v, want the max (100µs)", got)
	}
}

func TestRunCodeBreakdown(t *testing.T) {
	res := runOne(t, 4, 100, func(i int) error {
		switch {
		case i%10 == 0:
			return &codedErr{code: 2302}
		case i%10 == 1:
			return &codedErr{code: 2502}
		case i%10 == 2:
			return errors.New("transport")
		default:
			return nil
		}
	})
	if res.Errors != 30 {
		t.Fatalf("errors = %d, want 30", res.Errors)
	}
	want := map[int]uint64{0: 70, 2302: 10, 2502: 10}
	if len(res.CodeCounts) != len(want) {
		t.Fatalf("CodeCounts = %v, want %v", res.CodeCounts, want)
	}
	for code, n := range want {
		if res.CodeCounts[code] != n {
			t.Fatalf("CodeCounts[%d] = %d, want %d", code, res.CodeCounts[code], n)
		}
	}
	// Wrapped coded errors must still be counted.
	res = runOne(t, 1, 1, func(int) error {
		return fmt.Errorf("attempt failed: %w", &codedErr{code: 2400})
	})
	if res.CodeCounts[2400] != 1 {
		t.Fatalf("wrapped code not counted: %v", res.CodeCounts)
	}
}
