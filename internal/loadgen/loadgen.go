// Package loadgen is the load drivers' shared measurement vocabulary: a
// fixed-bucket latency histogram (Hist) and the Result every driver reports
// through. RunMix is the closed-loop driver — N workers issue a weighted mix
// of requests back-to-back until a fixed budget is spent, with no pacing, so
// it reports the saturation rate; drivers that run their own dispatch fold
// their observations in with Collect/CollectBy.
package loadgen

import (
	"errors"
	"time"
)

// Result summarises one load run.
type Result struct {
	Requests uint64        // requests attempted (== the budget given to RunMix)
	Errors   uint64        // requests whose fn returned an error
	Elapsed  time.Duration // wall clock from first to last request
	// CodeCounts breaks requests down by protocol result code, for request
	// errors that implement interface{ ResultCode() int } (epp.ResultError
	// does). Successful requests are counted under code 0 by RunMix; Collect
	// and CollectBy take the tally their caller recorded. Nil when nothing was
	// coded.
	CodeCounts map[int]uint64
	// hist holds the latency distribution as a fixed-bucket histogram (see
	// Hist), so a run's memory footprint is independent of its request
	// count. A zero Result reports zero percentiles.
	hist *Hist
}

// Collect assembles a Result from raw observations recorded by an external
// driver (the storm harness runs its own dispatcher but reports through this
// package's percentile machinery). The samples are folded into a histogram;
// the slice is not retained.
func Collect(latencies []time.Duration, errs uint64, elapsed time.Duration, codes map[int]uint64) Result {
	h := &Hist{}
	for _, d := range latencies {
		h.Record(d)
	}
	return Result{
		Requests:   uint64(len(latencies)),
		Errors:     errs,
		Elapsed:    elapsed,
		CodeCounts: codes,
		hist:       h,
	}
}

// Sample is one externally recorded observation tagged with a grouping key,
// the input to CollectBy. The storm harness uses it to split one run's
// observations per TLD and per zone without re-running anything.
type Sample struct {
	Key     string
	Latency time.Duration
	Err     bool
	Code    int  // protocol result code; meaningful only when Coded
	Coded   bool // whether Code should be tallied
}

// CollectBy folds samples into one Result per key — the same percentile
// machinery as Collect, grouped. Every Result shares the run's elapsed time
// (the groups ran concurrently; their RPS figures are each group's share of
// the same wall clock).
func CollectBy(samples []Sample, elapsed time.Duration) map[string]Result {
	hists := make(map[string]*Hist)
	errs := make(map[string]uint64)
	counts := make(map[string]uint64)
	codes := make(map[string]map[int]uint64)
	for _, s := range samples {
		h := hists[s.Key]
		if h == nil {
			h = &Hist{}
			hists[s.Key] = h
		}
		h.Record(s.Latency)
		counts[s.Key]++
		if s.Err {
			errs[s.Key]++
		}
		if s.Coded {
			if codes[s.Key] == nil {
				codes[s.Key] = make(map[int]uint64)
			}
			codes[s.Key][s.Code]++
		}
	}
	out := make(map[string]Result, len(hists))
	for key, h := range hists {
		out[key] = Result{
			Requests:   counts[key],
			Errors:     errs[key],
			Elapsed:    elapsed,
			CodeCounts: codes[key],
			hist:       h,
		}
	}
	return out
}

// resultCoder is the error hook for the code breakdown: protocol errors that
// know their wire result code implement it. Deliberately structural so this
// package needs no protocol import.
type resultCoder interface{ ResultCode() int }

// codeOf extracts a protocol result code from err, walking wrapped errors.
// A nil error is code 0; an uncoded error reports ok=false.
func codeOf(err error) (int, bool) {
	if err == nil {
		return 0, true
	}
	var rc resultCoder
	if errors.As(err, &rc) {
		return rc.ResultCode(), true
	}
	return 0, false
}

// RPS returns the sustained request rate of the run.
func (r Result) RPS() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Requests) / r.Elapsed.Seconds()
}

// Percentile returns the p-th percentile request latency for p in (0, 100].
// Semantics are nearest-rank over the recorded durations (rank ⌈p/100·n⌋, no
// interpolation), read from the fixed-bucket histogram: the value is the
// bucket floor of the nearest-rank observation, clamped into [min, max] —
// exact to the microsecond below 1 ms and within 6.25 % above (see Hist).
// With fewer than 100/(100-p) samples the top percentiles collapse onto the
// sample maximum, which is tracked exactly — P999 needs ≥1000 requests to
// resolve, and Percentile(100) is always the true maximum.
// Out-of-range p or an empty run reports zero.
func (r Result) Percentile(p float64) time.Duration {
	if r.hist == nil {
		return 0
	}
	return r.hist.Percentile(p)
}

// P50 is the median request latency.
func (r Result) P50() time.Duration { return r.Percentile(50) }

// P95 is the 95th-percentile request latency.
func (r Result) P95() time.Duration { return r.Percentile(95) }

// P99 is the 99th-percentile request latency — the tail number that decides
// whether a drop-catcher's create lands inside the deletion second.
func (r Result) P99() time.Duration { return r.Percentile(99) }

// P999 is the 99.9th-percentile request latency. During the Drop the race is
// decided by the single fastest create among thousands, so the far tail —
// the requests that would have lost — is the storm engine's headline number.
func (r Result) P999() time.Duration { return r.Percentile(99.9) }

// mergeCodes folds per-class code tallies into one map, nil when no request
// produced a code.
func mergeCodes(per []map[int]uint64) map[int]uint64 {
	var out map[int]uint64
	for _, m := range per {
		for code, n := range m {
			if out == nil {
				out = make(map[int]uint64)
			}
			out[code] += n
		}
	}
	return out
}
