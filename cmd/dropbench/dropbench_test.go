package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkFileMatchesHarness keeps BENCHMARK.json and the metric tables
// the program reports from saying the same thing.
func TestBenchmarkFileMatchesHarness(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness runs %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the harness %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	check := func(kind string, file []benchMetric, defs []metricDef, bounded bool) {
		if len(file) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the harness %d", kind, len(file), len(defs))
		}
		seen := make(map[string]bool)
		for i, m := range file {
			d := defs[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %s/%s/%s, the harness %s/%s/%s", kind, i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
			}
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
				t.Errorf("%s %s: name or unit %q outside the allowed alphabet", kind, m.Name, m.Unit)
			}
			if seen[m.Name] {
				t.Errorf("%s %s listed twice", kind, m.Name)
			}
			seen[m.Name] = true
			switch {
			case bounded && (m.Bound == nil || *m.Bound != d.bound || *m.Bound <= 0 || *m.Bound > 0.25):
				t.Errorf("%s %s: bound %v, the harness has %v (must be in (0, 0.25])", kind, m.Name, m.Bound, d.bound)
			case !bounded && m.Bound != nil:
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, m.Name)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd, true)
	check("per_layer", bf.PerLayer, perLayer, false)
	if _, ok := endToEndByName["setup_s"]; !ok {
		t.Error("setup_s must be an end-to-end metric")
	}
}

// TestSmoke runs every workload at smoke size the way the driver does, once
// untraced and once traced, and checks the result line: exactly the metrics
// BENCHMARK.json names for that mode, each printed once, every output check
// passing. It keeps the harness compiling and running against internal/* as
// later changes refactor them.
func TestSmoke(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, wl := range bf.Workloads {
		for _, traced := range []bool{false, true} {
			var out bytes.Buffer
			if err := run(&out, wl.Name, 7, bf.RunSeconds, traced, true, 0); err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", wl.Name, traced, err, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   *bool `json:"correct"`
				Attempted *int  `json:"attempted"`
				Failed    *int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&res); err != nil {
				t.Fatalf("%s traced=%v: last line is not the result object: %v\n%s", wl.Name, traced, err, out.String())
			}
			if res.Correct == nil || res.Attempted == nil || res.Failed == nil {
				t.Fatalf("%s traced=%v: result lacks correct/attempted/failed", wl.Name, traced)
			}
			if !*res.Correct || *res.Failed != 0 || *res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s", wl.Name, traced, *res.Correct, *res.Attempted, *res.Failed, out.String())
			}
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics in the result, BENCHMARK.json names %d", wl.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Value == nil || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s missing or in unit %q, want %q", wl.Name, traced, m.Name, got.Unit, m.Unit)
					continue
				}
				if !traced && !(*got.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", wl.Name, m.Name, *got.Value)
				}
				// The readable report names a metric at most once: a workload
				// prints the per-layer metrics it exercises and the result
				// line fills the rest with 0.
				n := 0
				for _, line := range lines[:len(lines)-1] {
					if f := strings.Fields(line); len(f) > 0 && f[0] == m.Name {
						n++
					}
				}
				if n > 1 || (!traced && n != 1) {
					t.Errorf("%s traced=%v: metric %s printed %d times", wl.Name, traced, m.Name, n)
				}
			}
		}
	}
}

// TestMedianAndSpread pins the quartile rule to Python's
// statistics.quantiles(values, n=4), which the driver uses.
func TestMedianAndSpread(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) == [3.5, 13.5, 31.0]
	median, spread := medianAndSpread([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if median != 13.5 || math.Abs(spread-(31.0-3.5)/13.5) > 1e-12 {
		t.Errorf("ten values: median %v spread %v", median, spread)
	}
	// statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15.0, 40.0, 120.0]
	median, spread = medianAndSpread([]float64{10, 20, 40, 80, 160})
	if median != 40 || math.Abs(spread-(120.0-15.0)/40) > 1e-12 {
		t.Errorf("five values: median %v spread %v", median, spread)
	}
}

// TestBudgetSumsToRoot checks parent resolution and self-time accounting on a
// hand-built trace: the rows of a budget add up to the root's duration, and a
// span outside the root stays out.
func TestBudgetSumsToRoot(t *testing.T) {
	rec := newRecorder()
	at := func(us int) time.Time { return rec.epoch.Add(time.Duration(us) * time.Microsecond) }
	rec.add("journal.fsync_wait", "a.com", at(20), at(60)) // recorded before its parents, as in a run
	rec.add("journal.append", "a.com", at(12), at(15))
	rec.add("registry.drop_apply", "a.com", at(10), at(70))
	rec.add("epp.create", "a.com", at(75), at(100))
	rec.add("release", "a.com", at(0), at(100))
	rec.add("feed.deliver", "a.com/feed", at(0), at(130)) // off the blocking path: its own ID
	rec.add("release", "b.com", at(0), at(50))            // another request's spans do not mix in
	rec.resolveParents()
	b := rec.budget("release")
	if b.roots != 2 || b.total != 150*time.Microsecond {
		t.Fatalf("roots %d total %v, want 2 and 150µs", b.roots, b.total)
	}
	self := make(map[string]time.Duration)
	var sum time.Duration
	for _, row := range b.rows {
		self[row.name] = row.self
		sum += row.self
	}
	if sum != b.total {
		t.Errorf("rows sum to %v, the roots to %v", sum, b.total)
	}
	want := map[string]time.Duration{
		"release":             65 * time.Microsecond, // a: 10 before + 5 between + nothing after; b: all 50
		"registry.drop_apply": 17 * time.Microsecond,
		"journal.append":      3 * time.Microsecond,
		"journal.fsync_wait":  40 * time.Microsecond,
		"epp.create":          25 * time.Microsecond,
	}
	for name, d := range want {
		if self[name] != d {
			t.Errorf("self time of %s = %v, want %v", name, self[name], d)
		}
	}
	if _, ok := self["feed.deliver"]; ok {
		t.Error("a span of another ID was counted under the root")
	}
}
