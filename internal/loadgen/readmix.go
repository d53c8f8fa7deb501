package loadgen

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// MixItem is one request class in a weighted workload: a label for
// reporting, a relative weight, and the request function. Fn receives the
// request's global index (0..total-1), so callers can vary the target per
// request.
type MixItem struct {
	Name   string
	Weight int
	Fn     func(i int) error
}

// MixResult is one RunMix run: the combined Result over every request plus
// a per-class breakdown, so a read-mix benchmark can report both "what the
// replica sustained" and "what RDAP lookups alone cost".
type MixResult struct {
	Combined Result
	PerItem  map[string]Result
}

// RunMix issues total requests through workers goroutines, interleaving the
// items' request functions in proportion to their weights. The schedule is
// computed up front from the global request index — smooth weighted
// round-robin over one weight-sum cycle — so every run with the same items
// issues the identical request sequence, and two stores benchmarked with
// RunMix see byte-for-byte the same workload. workers and total are clamped
// to at least 1. Workers pull indices from a shared counter; per-request
// observations land in preallocated slots indexed by request, so recording
// is contention-free.
func RunMix(workers, total int, items []MixItem) (MixResult, error) {
	if len(items) == 0 {
		return MixResult{}, fmt.Errorf("loadgen: RunMix needs at least one item")
	}
	weightSum := 0
	for _, it := range items {
		if it.Weight <= 0 {
			return MixResult{}, fmt.Errorf("loadgen: item %q has non-positive weight %d", it.Name, it.Weight)
		}
		if it.Fn == nil {
			return MixResult{}, fmt.Errorf("loadgen: item %q has no Fn", it.Name)
		}
		weightSum += it.Weight
	}
	if workers < 1 {
		workers = 1
	}
	if total < 1 {
		total = 1
	}

	// One cycle of smooth weighted round-robin: each slot picks the class
	// with the highest accumulated credit, then pays the full weight sum
	// back. Weights {3,1} schedule as A A B A, not A A A B — the classes
	// stay interleaved at every scale, which matters when the thing under
	// test is a per-generation cache shared across classes.
	cycle := make([]uint8, weightSum)
	credit := make([]int, len(items))
	for slot := range cycle {
		best := 0
		for i, it := range items {
			credit[i] += it.Weight
			if credit[i] > credit[best] {
				best = i
			}
		}
		credit[best] -= weightSum
		cycle[slot] = uint8(best)
	}

	errs := make([]error, total)
	classOf := func(i int) int { return int(cycle[i%weightSum]) }

	// Per-class and combined histograms, recorded directly from the workers
	// (Record is atomic): the run's footprint no longer grows with total.
	perHist := make([]*Hist, len(items))
	for c := range perHist {
		perHist[c] = &Hist{}
	}
	combined := &Hist{}

	var next atomic.Uint64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= uint64(total) {
					return
				}
				c := classOf(int(i))
				t0 := time.Now()
				errs[i] = items[c].Fn(int(i))
				d := time.Since(t0)
				perHist[c].Record(d)
				combined.Record(d)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	// Fold the error array into per-class tallies.
	perN := make([]uint64, len(items))
	perErrs := make([]uint64, len(items))
	perCodes := make([]map[int]uint64, len(items))
	for i := 0; i < total; i++ {
		c := classOf(i)
		perN[c]++
		if errs[i] != nil {
			perErrs[c]++
		}
		if code, ok := codeOf(errs[i]); ok {
			if perCodes[c] == nil {
				perCodes[c] = make(map[int]uint64)
			}
			perCodes[c][code]++
		}
	}
	out := MixResult{PerItem: make(map[string]Result, len(items))}
	var totalErrs uint64
	for c, it := range items {
		r := Result{
			Requests:   perN[c],
			Errors:     perErrs[c],
			Elapsed:    elapsed,
			CodeCounts: perCodes[c],
			hist:       perHist[c],
		}
		// Same-named items merge observations rather than clobbering.
		if prev, ok := out.PerItem[it.Name]; ok {
			prev.hist.Merge(r.hist)
			r = Result{
				Requests:   prev.Requests + r.Requests,
				Errors:     prev.Errors + r.Errors,
				Elapsed:    elapsed,
				CodeCounts: mergeCodes([]map[int]uint64{prev.CodeCounts, r.CodeCounts}),
				hist:       prev.hist,
			}
		}
		out.PerItem[it.Name] = r
		totalErrs += perErrs[c]
	}
	out.Combined = Result{
		Requests:   uint64(total),
		Errors:     totalErrs,
		Elapsed:    elapsed,
		CodeCounts: mergeCodes(perCodes),
		hist:       combined,
	}
	return out, nil
}
