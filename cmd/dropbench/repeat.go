package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// repeatStat is one metric on one workload across the sets.
type repeatStat struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	// Spread is the distance between the first and third quartile as a share
	// of the median — what a bound is judged against.
	Spread float64 `json:"spread"`
	// Bound and Pass are an end-to-end metric's; per-layer metrics have no
	// bound and are recorded, not judged.
	Bound float64 `json:"bound,omitempty"`
	Pass  bool    `json:"pass,omitempty"`
}

// baseline is what -repeat prints as its last line and what
// baseline/BASELINE.json holds.
type baseline struct {
	Env struct {
		Go           string  `json:"go"`
		GOOS         string  `json:"goos"`
		GOARCH       string  `json:"goarch"`
		GOMAXPROCS   int     `json:"gomaxprocs"`
		NumCPU       int     `json:"nproc"`
		GitSHA       string  `json:"git_sha"`
		Seed         int64   `json:"first_seed"`
		Sets         int     `json:"sets"`
		Seconds      int     `json:"seconds"`
		SyncCommitUS float64 `json:"journal.sync_commit_us"`
	} `json:"env"`
	// Workloads holds the end-to-end metrics, from the untraced runs;
	// PerLayer the per-layer metrics each workload exercises, from the traced
	// runs of the same seeds.
	Workloads map[string]map[string]*repeatStat `json:"workloads"`
	PerLayer  map[string]map[string]*repeatStat `json:"per_layer"`
	// InvalidRuns counts runs whose validity gate tripped; their op timings
	// are among the values all the same.
	InvalidRuns int  `json:"invalid_runs"`
	Pass        bool `json:"pass"`
}

// runRepeat runs sets full sets back to back, set k with seed+k — every
// workload untraced and then traced — and judges every end-to-end metric's
// spread against its bound. Every run is a process of its own, as the
// driver's runs are: in one process a workload inherits the heap, the GC
// pacing and the page cache the one before it left.
func runRepeat(w io.Writer, o options, sets int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	b := baseline{Workloads: make(map[string]map[string]*repeatStat), PerLayer: make(map[string]map[string]*repeatStat), Pass: true}
	b.Env.Go, b.Env.GOOS, b.Env.GOARCH = runtime.Version(), runtime.GOOS, runtime.GOARCH
	b.Env.GOMAXPROCS, b.Env.NumCPU = runtime.GOMAXPROCS(0), runtime.NumCPU()
	b.Env.Seed, b.Env.Sets, b.Env.Seconds = o.seed, sets, o.size.seconds
	b.Env.GitSHA = "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		b.Env.GitSHA = strings.TrimSpace(string(out))
	}
	commit, err := syncCommitProbe()
	if err != nil {
		return err
	}
	b.Env.SyncCommitUS = us(commit)

	// runOne runs one workload in a process of its own and files its result
	// line's metrics under into[workload].
	runOne := func(k int, wl workload, trace int, defs []metricDef, into map[string]map[string]*repeatStat) error {
		args := []string{"-workload", wl.name, "-seed", strconv.FormatInt(o.seed+int64(k), 10),
			"-seconds", strconv.Itoa(o.size.seconds), "-trace", strconv.Itoa(trace)}
		if o.smoke {
			args = append(args, "-smoke")
		}
		out, err := exec.Command(exe, args...).Output()
		if err != nil {
			return fmt.Errorf("%s %v: %w\n%s", exe, args, err, out)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res struct {
			Correct bool `json:"correct"`
			Metrics map[string]struct {
				Value float64 `json:"value"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("%s %v: result line: %w", exe, args, err)
		}
		if into[wl.name] == nil {
			into[wl.name] = make(map[string]*repeatStat)
		}
		for _, def := range defs {
			st := into[wl.name][def.name]
			if st == nil {
				st = &repeatStat{Unit: def.unit, Bound: def.bound}
				into[wl.name][def.name] = st
			}
			st.Values = append(st.Values, res.Metrics[def.name].Value)
		}
		if !res.Correct {
			b.Pass = false
			fmt.Fprintf(w, "%s\n", out)
		}
		if bytes.Contains(out, []byte("INVALID RUN")) {
			b.InvalidRuns++
			fmt.Fprintf(w, "set %d/%d %-10s seed %d trace %d: INVALID RUN, its op timings are the host's\n", k+1, sets, wl.name, o.seed+int64(k), trace)
		}
		return nil
	}
	for k := 0; k < sets; k++ {
		for _, wl := range workloads {
			if err := runOne(k, wl, 0, endToEnd, b.Workloads); err != nil {
				return err
			}
			if err := runOne(k, wl, 1, perLayer, b.PerLayer); err != nil {
				return err
			}
			fmt.Fprintf(w, "set %d/%d %-10s seed %d:", k+1, sets, wl.name, o.seed+int64(k))
			for _, def := range endToEnd {
				fmt.Fprintf(w, " %s=%.4f", def.name, b.Workloads[wl.name][def.name].Values[k])
			}
			fmt.Fprintf(w, " op.p50_ms=%.4f\n", b.PerLayer[wl.name]["op.p50_ms"].Values[k])
		}
	}

	fmt.Fprintf(w, "== repeatability over %d sets ==\n", sets)
	fmt.Fprintf(w, "  %-11s %-34s %14s %9s %7s  %s\n", "workload", "metric", "median", "spread", "bound", "values")
	for _, wl := range workloads {
		for _, def := range endToEnd {
			st := b.Workloads[wl.name][def.name]
			st.Median, st.Spread = medianAndSpread(st.Values)
			// setup_s is judged on its median only; its spread is reported.
			st.Pass = st.Spread <= st.Bound || def.name == "setup_s"
			verdict := "PASS"
			if !st.Pass {
				verdict, b.Pass = "FAIL", false
			}
			fmt.Fprintf(w, "  %-11s %-34s %14.4f %8.2f%% %6.0f%%  %s %.4f\n", wl.name, def.name, st.Median,
				100*st.Spread, 100*st.Bound, verdict, st.Values)
		}
		// Per-layer: what the workload exercises, recorded without a verdict.
		for _, def := range perLayer {
			st := b.PerLayer[wl.name][def.name]
			st.Median, st.Spread = medianAndSpread(st.Values)
			if st.Median == 0 && st.Spread == 0 {
				delete(b.PerLayer[wl.name], def.name)
				continue
			}
			fmt.Fprintf(w, "  %-11s %-34s %14.4f %8.2f%%\n", wl.name, def.name, st.Median, 100*st.Spread)
		}
	}
	line, err := json.Marshal(b)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// medianAndSpread follows Python's statistics.quantiles(values, n=4), the
// rule the driver applies: exclusive method, linear interpolation.
func medianAndSpread(values []float64) (median, spread float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], 0
	}
	q := func(k int) float64 {
		pos := float64(k*(n+1))/4 - 1 // zero-based position of quartile k
		lo := min(max(int(pos), 0), n-2)
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	median = q(2)
	return median, ratio(q(3)-q(1), median)
}
