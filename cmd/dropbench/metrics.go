package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// metricDef names one reported metric. BENCHMARK.json at the repository root
// lists the same names, units, directions and bounds; dropbench_test.go
// asserts the two stay equal.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: allowed worsening as a share of the baseline median
}

// endToEnd is what the driver holds to a bound on every workload: the
// process's memory and its set-up time. The op timings the issue lists as
// end-to-end are per-layer here ("op." below): on the baseline host, whose
// speed moves by a quarter to a half within the hour, none of them repeats to
// within a third of the largest bound the benchmark contract allows, and a
// bound looser than the metric's own noise rejects innocent changes.
// baseline/README.md has the measurements.
var endToEnd = []metricDef{
	{"live_heap_mb", "MB", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer metrics, layer = module name. A metric a workload does not
// exercise reads 0 there — which is itself the evidence that the workload
// bypasses that layer.
var perLayer = []metricDef{
	// op: the workload's user-visible operation as its client saw it.
	//
	//	drop_storm  release due instant → winning registrar holds the 1000 ack
	//	read_mix    one read (RDAP / WHOIS / pending-delete list / deltas, pooled)
	//	recovery    one restart cycle: journal.Open + follower bootstrap + Journal.Snapshot
	//	study       one simulated study day (sim.Run wall time / Days)
	//
	// On drop_storm and read_mix the figures are medians over the run's
	// windows (overWindows), so a stall of a few seconds moves none of them;
	// recovery and study have too few ops for a tail and report their rates
	// as journal.replay_rps and measure.lookups_per_s.
	{name: "op.p50_ms", unit: "ms", better: "lower"},
	{name: "op.tail_ms", unit: "ms", better: "lower"},
	{name: "op.per_s", unit: "1/s", better: "higher"},

	// loadgen: validity gate of the open-loop generators.
	{name: "loadgen.lag_p95_us", unit: "us", better: "lower"},
	{name: "loadgen.lag_max_us", unit: "us", better: "lower"},
	{name: "loadgen.achieved_ratio", unit: "ratio", better: "higher"},

	// epp
	{name: "epp.create_win_p50_us", unit: "us", better: "lower"},
	{name: "epp.create_lose_p50_us", unit: "us", better: "lower"},
	{name: "epp.session_wait_p50_us", unit: "us", better: "lower"},
	{name: "epp.write_p50_us", unit: "us", better: "lower"},
	{name: "epp.frame_ns", unit: "ns", better: "lower"},
	{name: "epp.limiter_ns", unit: "ns", better: "lower"},
	{name: "epp.code_1000", unit: "count", better: "higher"},
	{name: "epp.code_2302", unit: "count", better: "lower"},
	{name: "epp.code_2502", unit: "count", better: "lower"},
	{name: "epp.win_ratio", unit: "ratio", better: "higher"},

	// registry
	{name: "registry.drop_apply_p50_us", unit: "us", better: "lower"},
	{name: "registry.create_ns", unit: "ns", better: "lower"},
	{name: "registry.purge_ns", unit: "ns", better: "lower"},
	{name: "registry.tick_ms", unit: "ms", better: "lower"},
	{name: "registry.build_queue_ms", unit: "ms", better: "lower"},
	{name: "registry.bytes_per_domain", unit: "B", better: "lower"},

	// journal
	{name: "journal.commits", unit: "count", better: "lower"},
	{name: "journal.append_ns", unit: "ns", better: "lower"},
	{name: "journal.fsync_wait_p50_us", unit: "us", better: "lower"},
	{name: "journal.fsync_wait_p95_us", unit: "us", better: "lower"},
	{name: "journal.fsyncs_per_commit", unit: "ratio", better: "lower"},
	{name: "journal.wal_bytes_per_commit", unit: "B", better: "lower"},
	{name: "journal.sync_commit_us", unit: "us", better: "lower"},
	{name: "journal.open_ms", unit: "ms", better: "lower"},
	{name: "journal.snapshot_ms", unit: "ms", better: "lower"},
	{name: "journal.replay_rps", unit: "1/s", better: "higher"},
	{name: "journal.snapshot_read_ms", unit: "ms", better: "lower"},
	{name: "journal.snapshot_decode_ms", unit: "ms", better: "lower"},
	{name: "journal.snapshot_install_ms", unit: "ms", better: "lower"},
	{name: "journal.replay_ms", unit: "ms", better: "lower"},
	{name: "journal.snapshot_bytes_per_domain", unit: "B", better: "lower"},

	// repl
	{name: "repl.quorum_wait_p50_us", unit: "us", better: "lower"},
	{name: "repl.quorum_wait_p95_us", unit: "us", better: "lower"},
	{name: "repl.lag_p50_us", unit: "us", better: "lower"},
	{name: "repl.lag_p95_us", unit: "us", better: "lower"},
	{name: "repl.records_per_batch", unit: "ratio", better: "higher"},
	{name: "repl.shipped_bytes_per_record", unit: "B", better: "lower"},
	{name: "repl.peak_seq_lag", unit: "count", better: "lower"},
	{name: "repl.reconnects", unit: "count", better: "lower"},
	{name: "repl.bootstrap_ms", unit: "ms", better: "lower"},

	// feed
	{name: "feed.release_to_feed_p50_us", unit: "us", better: "lower"},
	{name: "feed.release_to_feed_p95_us", unit: "us", better: "lower"},
	{name: "feed.append_ns", unit: "ns", better: "lower"},
	{name: "feed.fanout_lag_p50_us", unit: "us", better: "lower"},
	{name: "feed.fanout_lag_p95_us", unit: "us", better: "lower"},
	{name: "feed.records_per_batch", unit: "ratio", better: "higher"},
	{name: "feed.ops_per_record", unit: "ratio", better: "lower"},
	{name: "feed.slow_drops", unit: "count", better: "lower"},
	{name: "feed.resets", unit: "count", better: "lower"},
	{name: "feed.deltas_p50_us", unit: "us", better: "lower"},

	// rdap, whois, dropscope
	{name: "rdap.requests", unit: "count", better: "higher"},
	{name: "rdap.get_p50_us", unit: "us", better: "lower"},
	{name: "rdap.hit_ratio", unit: "ratio", better: "higher"},
	{name: "rdap.cold_us", unit: "us", better: "lower"},
	{name: "rdap.warm_us", unit: "us", better: "lower"},
	{name: "whois.requests", unit: "count", better: "higher"},
	{name: "whois.query_p50_us", unit: "us", better: "lower"},
	{name: "whois.hit_ratio", unit: "ratio", better: "higher"},
	{name: "whois.cold_us", unit: "us", better: "lower"},
	{name: "whois.warm_us", unit: "us", better: "lower"},
	{name: "dropscope.requests", unit: "count", better: "higher"},
	{name: "dropscope.list_p50_us", unit: "us", better: "lower"},
	{name: "dropscope.hit_ratio", unit: "ratio", better: "higher"},
	{name: "dropscope.cold_us", unit: "us", better: "lower"},
	{name: "dropscope.warm_us", unit: "us", better: "lower"},

	// sim, measure
	{name: "sim.deletions", unit: "count", better: "higher"},
	{name: "sim.observations", unit: "count", better: "higher"},
	{name: "measure.lookups_per_s", unit: "1/s", better: "higher"},

	// Budget of the workload's op from the traced run: mean self time per
	// layer on the blocking path. The rows sum to trace.op_mean_us.
	{name: "loadgen.self_us", unit: "us", better: "lower"},
	{name: "registry.self_us", unit: "us", better: "lower"},
	{name: "journal.self_us", unit: "us", better: "lower"},
	{name: "repl.self_us", unit: "us", better: "lower"},
	{name: "feed.self_us", unit: "us", better: "lower"},
	{name: "epp.self_us", unit: "us", better: "lower"},
	{name: "sim.self_us", unit: "us", better: "lower"},
	{name: "unattributed.self_us", unit: "us", better: "lower"},
	{name: "trace.op_mean_us", unit: "us", better: "lower"},
	{name: "trace.spans", unit: "count", better: "lower"},
}

func defIndex(defs []metricDef) map[string]metricDef {
	m := make(map[string]metricDef, len(defs))
	for _, d := range defs {
		m[d.name] = d
	}
	return m
}

var (
	endToEndByName = defIndex(endToEnd)
	perLayerByName = defIndex(perLayer)
)

// result is what one run of one workload reports.
type result struct {
	workload string
	traced   bool

	attempted int
	failed    int
	// problems are failed output checks and make the run incorrect. invalid
	// is a tripped validity gate: the host stalled the generator, so the op
	// timings are not the program's. It is printed and shows in loadgen.*,
	// but it is not the program failing, and the end-to-end metrics (memory,
	// set-up) do not depend on it, so the run stays correct.
	problems []string
	invalid  []string

	values map[string]float64
	// info lines carry sample counts and figures that are printed but are
	// not metrics (p99, counts behind a ratio).
	info []string

	budget *budgetTable // traced runs only
	digest string       // study: SHA-256 of the dataset
}

func newResult(workload string, traced bool) *result {
	return &result{workload: workload, traced: traced, values: make(map[string]float64)}
}

// set records a metric by its registered name; an unregistered or repeated
// name is a bug in the harness.
func (r *result) set(name string, v float64) {
	_, e2e := endToEndByName[name]
	_, layer := perLayerByName[name]
	if !e2e && !layer {
		panic("dropbench: unregistered metric " + name)
	}
	if _, dup := r.values[name]; dup {
		panic("dropbench: metric set twice: " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.values[name] = v
}

func (r *result) infof(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

func (r *result) problemf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) correct() bool {
	return r.failed == 0 && len(r.problems) == 0
}

// reported returns the metric set the run's mode prescribes — every
// end-to-end metric for an untraced run, every per-layer metric for a traced
// one — with 0 for per-layer metrics the workload does not exercise.
func (r *result) reported() []metricDef {
	if r.traced {
		return perLayer
	}
	return endToEnd
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// percentile is nearest-rank over an ascending-sorted sample.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func sortDurations(ds []time.Duration) []time.Duration {
	slices.Sort(ds)
	return ds
}

func medianDuration(ds []time.Duration) time.Duration {
	s := sortDurations(append([]time.Duration(nil), ds...))
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func meanDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

// tail is the highest percentile the sample supports under the rule "at
// least ten samples beyond it", capped at p95 (p99 is printed as information
// until a later issue shows it repeats). A sample too small for p95 has no
// tail to speak of, and its median stands in.
func tail(sorted []time.Duration) (time.Duration, string) {
	if len(sorted) >= 200 {
		return percentile(sorted, 95), "p95"
	}
	return medianDuration(sorted), "p50"
}

// window is one stretch of a run, long enough for a p95 of its own: the
// median, tail and rate of the ops that fell into it.
type window struct {
	p50, tail time.Duration
	rate      float64
}

// overWindows reduces a run to the median, over its windows, of each figure.
// What disturbs a run on a shared host comes in bursts — a neighbour, a slow
// fsync — and a burst spoils the windows it touches, not the median over all
// of them.
func overWindows(ws []window) window {
	var p50s, tails []time.Duration
	var rates []float64
	for _, w := range ws {
		p50s, tails, rates = append(p50s, w.p50), append(tails, w.tail), append(rates, w.rate)
	}
	rate, _ := medianAndSpread(rates)
	return window{medianDuration(p50s), medianDuration(tails), rate}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
