package main

import (
	"encoding/json"
	"runtime"
	"strings"
	"testing"
)

func TestParseBenchOutput(t *testing.T) {
	input := `goos: linux
goarch: amd64
pkg: dropzero/internal/registry
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkDailySweep/store=1000000/engine=indexed-8         	      20	    159841 ns/op	   54784 B/op	     302 allocs/op
BenchmarkStudyWallClock 	       1	7500602744 ns/op	    114180 deletions/day(paper:66k-112k)
--- PASS: TestSomething (0.01s)
PASS
ok  	dropzero/internal/registry	40.149s
`
	var results []Result
	if err := parse(strings.NewReader(input), &results); err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("parsed %d results, want 2", len(results))
	}
	sweep := results[0]
	if sweep.Name != "BenchmarkDailySweep/store=1000000/engine=indexed-8" {
		t.Errorf("name = %q", sweep.Name)
	}
	if sweep.Iterations != 20 || sweep.NsPerOp != 159841 || sweep.AllocsPerOp != 302 {
		t.Errorf("sweep = %+v", sweep)
	}
	if sweep.Metrics["B/op"] != 54784 {
		t.Errorf("B/op = %v", sweep.Metrics["B/op"])
	}
	study := results[1]
	if study.NsPerOp != 7500602744 || study.Metrics["deletions/day(paper:66k-112k)"] != 114180 {
		t.Errorf("study = %+v", study)
	}
	if study.AllocsPerOp != 0 {
		t.Errorf("study allocs = %v, want 0 (not reported)", study.AllocsPerOp)
	}
}

func TestParseLineRejectsNonBenchLines(t *testing.T) {
	for _, line := range []string{
		"",
		"PASS",
		"ok  \tdropzero\t7.5s",
		"goos: linux",
		"Benchmark notanumber 5 ns/op",
		"BenchmarkOnlyName",
	} {
		if _, ok := parseLine(line); ok {
			t.Errorf("parseLine(%q) accepted, want rejected", line)
		}
	}
}

func TestArtifactStampsEnvironment(t *testing.T) {
	var results []Result
	input := "BenchmarkX 	       5	  11 ns/op\n"
	if err := parse(strings.NewReader(input), &results); err != nil {
		t.Fatal(err)
	}
	art := Artifact{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GitSHA:     gitSHA(),
		Results:    results,
	}
	if art.GoVersion == "" || art.GOMAXPROCS < 1 {
		t.Fatalf("environment stamp empty: %+v", art)
	}
	data, err := json.Marshal(art)
	if err != nil {
		t.Fatal(err)
	}
	var back Artifact
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.GoVersion != art.GoVersion || back.GOMAXPROCS != art.GOMAXPROCS || len(back.Results) != 1 {
		t.Fatalf("round trip mangled artifact: %+v", back)
	}
}

func TestGitSHAPrefersEnv(t *testing.T) {
	t.Setenv("GITHUB_SHA", "deadbeefcafe")
	if got := gitSHA(); got != "deadbeefcafe" {
		t.Fatalf("gitSHA with GITHUB_SHA set = %q", got)
	}
}

// The gate counts and never times: one more allocation is red, so is B/op
// past 2 %, a doubled ns/op is not; names compare without the GOMAXPROCS
// suffix — and only that suffix — and comparing nothing is a failure of its
// own.
func TestCompareGate(t *testing.T) {
	bench := func(name string, ns, bytes, allocs float64) Result {
		return Result{Name: name, Iterations: 2000, NsPerOp: ns, AllocsPerOp: allocs,
			Metrics: map[string]float64{"ns/op": ns, "B/op": bytes, "allocs/op": allocs}}
	}
	ref := &Artifact{GOMAXPROCS: 2, Results: []Result{
		bench("BenchmarkEPPFramePath/create-2", 900, 0, 0),
		bench("BenchmarkRDAPLookup/cold-2", 5000, 1000, 54),
		bench("BenchmarkFanout/single/subs-1-2", 400, 0, 0),
		bench("BenchmarkFanout/single/subs-100-2", 6000, 64, 2),
		bench("BenchmarkWALAppend/async-2", 1700, 883, 9),
		bench("BenchmarkWALAppend/async-2", 1700, 927, 9),
		bench("BenchmarkWALAppend/sync-2", 90000, 640, 9),
		bench("BenchmarkWALAppend/sync-2", 90000, 646, 10),
	}}
	for _, tc := range []struct {
		name  string
		procs int
		cur   []Result
		want  bool
	}{
		{"identical", 2, ref.Results, true},
		{"ns/op doubled on a wider host", 8, []Result{bench("BenchmarkEPPFramePath/create-8", 1800, 0, 0), bench("BenchmarkRDAPLookup/cold-8", 10000, 1000, 54)}, true},
		{"one more allocation", 2, []Result{bench("BenchmarkEPPFramePath/create-2", 900, 0, 1)}, false},
		{"one allocation fewer", 2, []Result{bench("BenchmarkRDAPLookup/cold-2", 5000, 1000, 53)}, true},
		{"B/op up 2 % and 16 B", 2, []Result{bench("BenchmarkRDAPLookup/cold-2", 5000, 1036, 54)}, true},
		{"B/op up 2 % and 17 B", 2, []Result{bench("BenchmarkRDAPLookup/cold-2", 5000, 1037, 54)}, false},
		{"B/op from zero", 2, []Result{bench("BenchmarkEPPFramePath/create-2", 900, 17, 0)}, false},
		{"several reference runs: the highest holds", 2, []Result{bench("BenchmarkWALAppend/sync-2", 90000, 660, 10)}, true},
		{"several reference runs: above the highest", 2, []Result{bench("BenchmarkWALAppend/sync-2", 90000, 700, 11)}, false},
		{"a B/op the reference runs disagree on is not judged", 2, []Result{bench("BenchmarkWALAppend/async-2", 1700, 1100, 9)}, true},
		{"its allocs/op still is", 2, []Result{bench("BenchmarkWALAppend/async-2", 1700, 900, 10)}, false},
		{"one CPU: no suffix, and subs-100 is not subs-1", 1, []Result{bench("BenchmarkFanout/single/subs-100", 6000, 64, 2), bench("BenchmarkFanout/single/subs-1", 400, 0, 0)}, true},
		{"only benchmarks the reference lacks", 2, []Result{bench("BenchmarkNew-2", 1, 1e6, 1e3)}, false},
		{"a new benchmark beside a held one", 2, []Result{bench("BenchmarkNew-2", 1, 1e6, 1e3), bench("BenchmarkRDAPLookup/cold-2", 5000, 1000, 54)}, true},
	} {
		var table strings.Builder
		if got := compare(&table, ref, &Artifact{GOMAXPROCS: tc.procs, Results: tc.cur}); got != tc.want {
			t.Errorf("%s: gate holds = %v, want %v\n%s", tc.name, got, tc.want, table.String())
		}
		if !tc.want && !strings.Contains(table.String(), "FAIL") && !strings.Contains(table.String(), "nothing was gated") {
			t.Errorf("%s: the table does not say what failed:\n%s", tc.name, table.String())
		}
	}
}

// A reference recorded under another Go minor is refused with a message
// instead of being read as allocation regressions; patch releases compare.
func TestCompareRefusesAnotherGoMinor(t *testing.T) {
	results := []Result{{Name: "BenchmarkRDAPLookup/cold-2", AllocsPerOp: 54, Metrics: map[string]float64{"B/op": 1000}}}
	for _, tc := range []struct {
		ref, cur string
		want     bool
	}{
		{"go1.24.0", "go1.24.0", true},
		{"go1.24.0", "go1.24.7", true},
		{"go1.24.0", "go1.24rc1", true},
		{"go1.24.0", "go1.22.12", false},
		{"go1.24.0", "go1.25", false},
		{"go1.2.2", "go1.22.0", false},
		{"go1.24.0", "devel +abc", false},
	} {
		var table strings.Builder
		got := compare(&table, &Artifact{GoVersion: tc.ref, GOMAXPROCS: 2, Results: results}, &Artifact{GoVersion: tc.cur, GOMAXPROCS: 2, Results: results})
		if got != tc.want {
			t.Errorf("reference %s, run %s: gate holds = %v, want %v\n%s", tc.ref, tc.cur, got, tc.want, table.String())
		}
		if !tc.want && (!strings.Contains(table.String(), tc.ref) || !strings.Contains(table.String(), tc.cur) || strings.Contains(table.String(), "FAIL")) {
			t.Errorf("reference %s, run %s: the refusal does not name the two toolchains:\n%s", tc.ref, tc.cur, table.String())
		}
	}
}
