// Command dropbench is the repository's benchmark: it boots the full node —
// sharded store, sync journal, one semi-sync follower over loopback, feed hub,
// EPP/RDAP/WHOIS/pending-delete servers — and measures the figure the paper
// is about, the time from the registry releasing a name to a registrar
// holding the ack for its re-registration, next to three workloads that use
// the same layers differently. See README.md for the workloads, the metrics
// and how to read the traced run.
//
//	go run ./cmd/dropbench -seed 7                      all four workloads
//	go run ./cmd/dropbench -workload drop_storm -trace 1   one traced workload
//	go run ./cmd/dropbench -smoke                       seconds, for go test
//	go run ./cmd/dropbench -repeat 5                    spread against the bounds
//
// With a single -workload the last line of standard output is one JSON
// object {correct, attempted, failed, metrics}: every end-to-end metric for
// -trace 0, every per-layer metric for -trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// sizing is everything that differs between a full run and -smoke.
type sizing struct {
	seconds    int // measured phase of drop_storm and read_mix
	population int // domains in the node workloads' store
	setups     int // set-ups timed per run; the median is reported

	recDomains, recTail int // recovery: snapshot domains, WAL tail records
	recRounds           int // recovery: minimum restart cycles

	studyDays  int
	studyScale float64
}

func fullSizing(seconds int) sizing {
	return sizing{
		seconds: seconds, population: 100_000, setups: 3,
		recDomains: 400_000, recTail: 150_000, recRounds: 5,
		// 14 days per 30 s at this host's ~1.3 s per simulated day.
		studyDays: max(1, seconds*14/30), studyScale: 0.25,
	}
}

func smokeSizing() sizing {
	return sizing{
		seconds: 2, population: 10_000, setups: 1,
		recDomains: 20_000, recTail: 7_500, recRounds: 1,
		studyDays: 1, studyScale: 0.02,
	}
}

// options is one workload run's inputs.
type options struct {
	seed    int64
	size    sizing
	smoke   bool
	clients int       // C: EPP sessions, SSE subscribers; read workers are C-1
	rec     *recorder // nil for an untraced run
}

func (o options) traced() bool { return o.rec != nil }

type workload struct {
	name string
	run  func(options) (*result, error)
	// root names the span whose mean duration the traced run's budget
	// divides among the layers: the workload's op, or its write path.
	root string
}

var workloads = []workload{
	{"drop_storm", runDropStorm, "release"},
	{"read_mix", runReadMix, "epp.write"},
	{"recovery", runRecovery, "restart"},
	{"study", runStudy, "sim.run"},
}

func main() {
	name := flag.String("workload", "all", "workload to run: drop_storm, read_mix, recovery, study or all")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Int("seconds", 20, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 records spans and runs the per-layer probes; with -workload all it reruns each workload traced after the untraced run")
	smoke := flag.Bool("smoke", false, "tiny sizes: checks the harness, not the program's speed")
	repeat := flag.Int("repeat", 0, "run this many full sets and judge each end-to-end metric's spread against its bound")
	flag.Parse()

	if err := run(os.Stdout, *name, *seed, *seconds, *trace == 1, *smoke, *repeat); err != nil {
		fmt.Fprintln(os.Stderr, "dropbench:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, name string, seed int64, seconds int, traced, smoke bool, repeat int) error {
	if seconds < 1 {
		return fmt.Errorf("-seconds %d: need at least 1", seconds)
	}
	o := options{seed: seed, size: fullSizing(seconds), smoke: smoke, clients: min(runtime.NumCPU(), 4)}
	if smoke {
		o.size = smokeSizing()
	}
	if repeat > 0 {
		return runRepeat(w, o, repeat)
	}
	if name == "all" {
		ok := true
		for _, wl := range workloads {
			res, err := runPair(w, wl, o, traced)
			if err != nil {
				return err
			}
			ok = ok && res
		}
		if !ok {
			return fmt.Errorf("output checks failed")
		}
		return nil
	}
	for _, wl := range workloads {
		if wl.name != name {
			continue
		}
		if traced {
			o.rec = newRecorder()
		}
		r, err := runChecked(wl, o)
		if err != nil {
			return err
		}
		r.print(w)
		if err := finishTrace(w, r, o); err != nil {
			return err
		}
		return r.printJSON(w)
	}
	return fmt.Errorf("unknown workload %q", name)
}

// runPair runs a workload untraced and, when asked, again traced with the
// same seed, and reports what tracing cost.
func runPair(w io.Writer, wl workload, o options, traced bool) (bool, error) {
	plain, err := runChecked(wl, o)
	if err != nil {
		return false, err
	}
	plain.print(w)
	if !traced {
		return plain.correct(), nil
	}
	o.rec = newRecorder()
	tr, err := runChecked(wl, o)
	if err != nil {
		return false, err
	}
	if plain.digest != tr.digest {
		tr.problemf("dataset SHA-256 differs between the untraced (%s) and traced (%s) run", plain.digest, tr.digest)
	}
	tr.print(w)
	if err := finishTrace(w, tr, o); err != nil {
		return false, err
	}
	fmt.Fprintf(w, "  trace_overhead_ratio = %.4f (traced / untraced op.p50_ms = %.4f / %.4f)\n",
		ratio(tr.values["op.p50_ms"], plain.values["op.p50_ms"]), tr.values["op.p50_ms"], plain.values["op.p50_ms"])
	return plain.correct() && tr.correct(), nil
}

// runChecked runs one workload and verifies it left no goroutine behind, so
// one workload's leftovers cannot perturb the next.
func runChecked(wl workload, o options) (*result, error) {
	before := runtime.NumGoroutine()
	r, err := wl.run(o)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", wl.name, err)
	}
	leak := waitFor(3*time.Second, "goroutines to exit", func() bool { return runtime.NumGoroutine() <= before })
	if leak != nil {
		r.problemf("%d goroutines before the workload, %d after its teardown", before, runtime.NumGoroutine())
	}
	if r.traced {
		o.rec.resolveParents()
		r.budget = o.rec.budget(wl.root)
		self := r.budget.meanSelfByLayer()
		for _, layer := range []string{"loadgen", "registry", "journal", "repl", "feed", "epp", "sim", "unattributed"} {
			r.set(layer+".self_us", us(self[layer]))
			delete(self, layer)
		}
		for layer := range self {
			return nil, fmt.Errorf("%s: span layer %q has no budget metric", wl.name, layer)
		}
		if r.budget.roots > 0 {
			r.set("trace.op_mean_us", us(r.budget.total/time.Duration(r.budget.roots)))
		}
		r.set("trace.spans", float64(len(o.rec.spans)))
	}
	return r, nil
}

// finishTrace prints a traced run's budget and writes its span file.
func finishTrace(w io.Writer, r *result, o options) error {
	if o.rec == nil {
		return nil
	}
	r.budget.print(w)
	path, err := o.rec.writeFile(r.workload, o.seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  %d spans written to %s (%d dropped)\n", len(o.rec.spans), path, o.rec.dropped)
	return nil
}

// medianSetup runs a workload's set-up n times and returns the median wall
// time. setup returns the teardown of what it built; every build but the
// last is torn down at once, the last is the one the workload measures.
func medianSetup(n int, setup func(last bool) (teardown func() error, err error)) (time.Duration, error) {
	var took []time.Duration
	for i := 0; i < n; i++ {
		last := i == n-1
		t0 := time.Now()
		teardown, err := setup(last)
		if err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		took = append(took, time.Since(t0))
		if !last {
			if err := teardown(); err != nil {
				return 0, fmt.Errorf("teardown: %w", err)
			}
		}
	}
	return medianDuration(took), nil
}

func (r *result) print(w io.Writer) {
	mode := "untraced"
	if r.traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (%s) ==\n", r.workload, mode)
	for _, line := range r.info {
		fmt.Fprintf(w, "  %s\n", line)
	}
	// Table order: end-to-end first (the untraced run's only), then the
	// per-layer metrics the workload exercised, layer by layer.
	for _, group := range []struct {
		kind string
		defs []metricDef
	}{{"end-to-end", endToEnd}, {"per-layer", perLayer}} {
		if r.traced && group.kind == "end-to-end" {
			continue
		}
		for _, def := range group.defs {
			if v, ok := r.values[def.name]; ok {
				fmt.Fprintf(w, "  %-34s %16.4f %-6s %s\n", def.name, v, def.unit, group.kind)
			}
		}
	}
	fmt.Fprintf(w, "  fail_ratio = %d/%d\n", r.failed, r.attempted)
	for _, p := range r.problems {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", p)
	}
	for _, p := range r.invalid {
		fmt.Fprintf(w, "  INVALID RUN (the op timings are the host's, not the program's): %s\n", p)
	}
	if r.correct() {
		fmt.Fprintf(w, "  output checks: PASS\n")
	}
}

// printJSON writes the driver's result line.
func (r *result) printJSON(w io.Writer) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), max(r.attempted, 1), r.failed, make(map[string]value)}
	for _, def := range r.reported() {
		out.Metrics[def.name] = value{r.values[def.name], def.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
