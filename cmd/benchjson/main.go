// Command benchjson converts `go test -bench` output into a JSON perf
// trajectory artifact: one record per benchmark result with its name, ns/op
// and (when -benchmem was set) B/op and allocs/op, plus any custom
// ReportMetric values. CI runs it over the bench smoke output and uploads
// the result, so per-PR performance history is diffable without parsing
// benchmark text.
//
// Usage:
//
//	go test -bench . -benchmem | benchjson > bench.json
//	benchjson bench-registry.txt bench-study.txt > bench.json
//	benchjson -compare ref.json new.json
//
// -compare is the regression gate: for every benchmark in both artifacts it
// prints allocs/op and B/op side by side and exits non-zero when allocs/op
// rose at all or B/op by more than 2 % — the figures that repeat from run to
// run and host to host. ns/op does not, and is never judged. A reference
// recorded under another Go minor (go_version) is refused with a message:
// allocation counts differ between runtimes. The reference is itself
// benchjson's output over several runs of the same benchmarks
// (.github/BENCH.ref.json: five).
//
// Lines that are not benchmark results (the goos/pkg preamble, PASS/ok
// trailers, test log output) are ignored, so raw `go test` output can be fed
// in unfiltered.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// Artifact is the emitted JSON document: the parsed results stamped with
// the environment they were measured in, so two artifacts are only compared
// when their toolchain and core count actually match.
type Artifact struct {
	GoVersion  string   `json:"go_version"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	GitSHA     string   `json:"git_sha,omitempty"`
	Results    []Result `json:"results"`
}

// gitSHA resolves the commit being measured: CI's GITHUB_SHA when present,
// otherwise the working tree's HEAD, otherwise empty (e.g. piped output
// outside any checkout — the artifact is still valid, just unpinned).
func gitSHA() string {
	if sha := os.Getenv("GITHUB_SHA"); sha != "" {
		return sha
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// Result is one parsed benchmark line. NsPerOp and AllocsPerOp are broken
// out because they are the two metrics the repo tracks PR over PR; all
// units, including those two, are preserved verbatim in Metrics.
type Result struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// parseLine parses one `go test -bench` result line:
//
//	BenchmarkName-8   	     100	  11 ns/op	  3 B/op	  1 allocs/op
//
// i.e. a Benchmark-prefixed name, an iteration count, then value-unit pairs.
// ok=false for anything else.
func parseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: fields[0], Iterations: iters, Metrics: make(map[string]float64)}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		unit := fields[i+1]
		r.Metrics[unit] = v
		switch unit {
		case "ns/op":
			r.NsPerOp = v
		case "allocs/op":
			r.AllocsPerOp = v
		}
	}
	if len(r.Metrics) == 0 {
		return Result{}, false
	}
	return r, true
}

func parse(rd io.Reader, out *[]Result) error {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		if r, ok := parseLine(sc.Text()); ok {
			*out = append(*out, r)
		}
	}
	return sc.Err()
}

// key is a result's name without the -GOMAXPROCS suffix `go test` appends on
// a host of more than one CPU, so artifacts from hosts of different widths
// compare.
func (a *Artifact) key(r Result) string {
	if a.GOMAXPROCS > 1 {
		return strings.TrimSuffix(r.Name, "-"+strconv.Itoa(a.GOMAXPROCS))
	}
	return r.Name
}

// goMinor is a runtime.Version string cut after its minor number:
// "go1.24.0" and "go1.24rc1" are both "go1.24".
func goMinor(version string) string {
	_, rest, ok := strings.Cut(version, ".")
	if !ok {
		return version
	}
	digits := 0
	for digits < len(rest) && rest[digits] >= '0' && rest[digits] <= '9' {
		digits++
	}
	return version[:len(version)-len(rest)+digits]
}

// bOpSlack is how far B/op may sit above the reference before it counts as
// a rise: 2 % and 16 bytes, the second for benchmarks that allocate nothing
// per operation but whose process allocated something once.
func bOpSlack(ref float64) float64 { return ref*1.02 + 16 }

// compare prints one row per benchmark present in both ref and cur and
// reports whether the gate holds: both recorded under the same Go minor, no
// allocs/op above ref's, no B/op more than the slack above ref's, and at
// least one benchmark compared. ref may hold several runs of a benchmark;
// the highest of each figure is the reference, and a B/op the reference's
// own runs disagree on by more than the slack (an async flusher's buffer
// growth, say) is printed, not judged.
func compare(w io.Writer, ref, cur *Artifact) bool {
	if goMinor(ref.GoVersion) != goMinor(cur.GoVersion) {
		fmt.Fprintf(w, "reference recorded under %s, this run under %s: allocs/op differ between Go minors (the runtime's maps, for one), so nothing was gated — run under the reference's toolchain or re-record the reference\n",
			ref.GoVersion, cur.GoVersion)
		return false
	}
	type figures struct{ allocs, bytes, bytesLow float64 }
	refs := make(map[string]figures, len(ref.Results))
	for _, r := range ref.Results {
		b := r.Metrics["B/op"]
		f, seen := refs[ref.key(r)]
		if !seen || b < f.bytesLow {
			f.bytesLow = b
		}
		f.allocs, f.bytes = max(f.allocs, r.AllocsPerOp), max(f.bytes, b)
		refs[ref.key(r)] = f
	}
	ok, compared := true, 0
	fmt.Fprintf(w, "%-60s %21s %25s\n", "benchmark", "allocs/op ref → new", "B/op ref → new")
	for _, c := range cur.Results {
		r, both := refs[cur.key(c)]
		if !both {
			continue
		}
		compared++
		verdict := ""
		if c.AllocsPerOp > r.allocs {
			verdict, ok = "  FAIL allocs/op", false
		}
		if r.bytes > bOpSlack(r.bytesLow) {
			verdict += "  (B/op does not repeat in the reference)"
		} else if c.Metrics["B/op"] > bOpSlack(r.bytes) {
			verdict, ok = verdict+"  FAIL B/op", false
		}
		fmt.Fprintf(w, "%-60s %9.0f → %-9.0f %11.0f → %-11.0f%s\n", cur.key(c),
			r.allocs, c.AllocsPerOp, r.bytes, c.Metrics["B/op"], verdict)
	}
	if compared == 0 {
		fmt.Fprintln(w, "no benchmark in both artifacts: nothing was gated")
		return false
	}
	return ok
}

func readArtifact(path string) *Artifact {
	data, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	art := new(Artifact)
	if err := json.Unmarshal(data, art); err != nil {
		log.Fatalf("%s: %v", path, err)
	}
	return art
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	if len(os.Args) == 4 && os.Args[1] == "-compare" {
		if !compare(os.Stdout, readArtifact(os.Args[2]), readArtifact(os.Args[3])) {
			log.Fatalf("%s regresses against %s", os.Args[3], os.Args[2])
		}
		return
	}
	var results []Result
	if len(os.Args) > 1 {
		for _, path := range os.Args[1:] {
			f, err := os.Open(path)
			if err != nil {
				log.Fatal(err)
			}
			err = parse(f, &results)
			f.Close()
			if err != nil {
				log.Fatalf("%s: %v", path, err)
			}
		}
	} else if err := parse(os.Stdin, &results); err != nil {
		log.Fatal(err)
	}
	if len(results) == 0 {
		log.Fatal("no benchmark results found in input")
	}
	art := Artifact{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GitSHA:     gitSHA(),
		Results:    results,
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(art); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: %d results (%s, GOMAXPROCS=%d)\n", len(results), art.GoVersion, art.GOMAXPROCS)
}
