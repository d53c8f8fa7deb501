package sim

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"dropzero/internal/journal"
	"dropzero/internal/measure"
	"dropzero/internal/registry"
	"dropzero/internal/simtime"
)

// resultDump renders everything a study produces in one canonical text form:
// the observation and registrar CSV bytes, the per-day deletion log, the
// Drop end times, ground truth, and the pipeline counters. Two runs are
// equivalent iff their dumps are byte-identical. Times are formatted in UTC
// so a time recovered from the journal (whose decoder yields a semantically
// equal instant in a different Location) compares equal to the original.
func resultDump(t *testing.T, res *Result) string {
	t.Helper()
	var b strings.Builder
	var csvBuf bytes.Buffer
	if err := measure.WriteCSV(&csvBuf, res.Observations); err != nil {
		t.Fatal(err)
	}
	b.WriteString("== observations.csv ==\n")
	b.Write(csvBuf.Bytes())
	csvBuf.Reset()
	if err := measure.WriteRegistrarsCSV(&csvBuf, res.Registrars); err != nil {
		t.Fatal(err)
	}
	b.WriteString("== registrars.csv ==\n")
	b.Write(csvBuf.Bytes())

	days := make([]simtime.Day, 0, len(res.Deletions))
	for d := range res.Deletions {
		days = append(days, d)
	}
	sort.Slice(days, func(i, j int) bool { return days[i].String() < days[j].String() })
	b.WriteString("== deletions ==\n")
	for _, d := range days {
		evs := res.Deletions[d]
		fmt.Fprintf(&b, "day %s (%d events, drop end %s)\n",
			d, len(evs), res.DropEnd[d].UTC().Format(time.RFC3339Nano))
		for _, ev := range evs {
			fmt.Fprintf(&b, "  %s %s id=%d rank=%d t=%s\n",
				ev.Name(), ev.TLD(), ev.DomainID(), ev.Rank(), ev.Time().UTC().Format(time.RFC3339Nano))
		}
	}

	b.WriteString("== truths ==\n")
	for _, d := range days {
		if len(res.Truths[d]) != len(res.Deletions[d]) {
			t.Fatalf("day %s: %d truths for %d deletions", d, len(res.Truths[d]), len(res.Deletions[d]))
		}
		for k, tr := range res.Truths[d] {
			ev := res.Deletions[d][k]
			fmt.Fprintf(&b, "%s value=%.6f age=%d deleted=%s",
				ev.Name(), tr.Value, tr.AgeYears(), ev.Time().UTC().Format(time.RFC3339Nano))
			if registrar, delay, ok := tr.Claim(); ok {
				fmt.Fprintf(&b, " claim=%s/%d delay=%s", res.Directory.ServiceOf(registrar), registrar, delay)
			}
			b.WriteByte('\n')
		}
	}
	fmt.Fprintf(&b, "== stats ==\n%+v\n", res.PipelineStats)
	return b.String()
}

func firstDumpDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  a: %s\n  b: %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(al), len(bl))
}

func recoverTestConfig(seed int64) Config {
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.Days = 4
	cfg.Scale = 0.01
	cfg.FinalizeAfterDays = 10
	cfg.snapshotDays = 2
	return cfg
}

// TestRecoverMatchesUninterrupted is the subsystem's acceptance test: a run
// killed at an arbitrary WAL sequence point — including mid-Drop, the
// registry's hottest moment — and then resumed from disk must produce the
// dataset the uninterrupted run produced, byte for byte: same CSVs, same
// deletion log, same ground truth, same pipeline counters.
//
// One uninterrupted journaled run per seed (taken with keepCheckpoints so
// nothing is pruned) serves as the reference; CrashCopy then manufactures
// the on-disk state a kill -9 at each chosen sequence point would have left,
// torn final write included, and Run resumes from the copy.
func TestRecoverMatchesUninterrupted(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run differential test")
	}
	for _, seed := range []int64{1, 7, 20180108} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			cfg := recoverTestConfig(seed)

			baseline, err := Run(cfg)
			if err != nil {
				t.Fatalf("baseline: %v", err)
			}
			want := resultDump(t, baseline)

			refDir := filepath.Join(t.TempDir(), "ref")
			jcfg := cfg
			jcfg.DataDir = refDir
			jcfg.Durability = journal.ModeAsync
			jcfg.keepCheckpoints = true
			journaled, err := Run(jcfg)
			if err != nil {
				t.Fatalf("journaled: %v", err)
			}
			if got := resultDump(t, journaled); got != want {
				t.Fatalf("journaled run differs from memory-only run:\n%s", firstDumpDiff(got, want))
			}

			records, err := journal.Scan(refDir, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(records) == 0 {
				t.Fatal("reference run journaled no records")
			}
			// Purge records are the Drop in action; cutting at one kills the
			// run mid-Drop. Collect a few other record classes too.
			var purgeSeqs, otherSeqs []uint64
			for _, r := range records {
				if r.Mutation != nil && r.Mutation.Kind == registry.MutPurge {
					purgeSeqs = append(purgeSeqs, r.Seq)
				} else {
					otherSeqs = append(otherSeqs, r.Seq)
				}
			}
			if len(purgeSeqs) == 0 {
				t.Fatal("reference run journaled no purges — no Drop ran?")
			}
			rng := rand.New(rand.NewSource(seed * 31))
			cuts := []struct {
				seq  uint64
				torn int
			}{
				{purgeSeqs[rng.Intn(len(purgeSeqs))], 0},                // mid-Drop
				{purgeSeqs[rng.Intn(len(purgeSeqs))], 3 + rng.Intn(40)}, // mid-Drop, write in flight
				{otherSeqs[rng.Intn(len(otherSeqs))], 0},                // anywhere else
				{records[len(records)-1].Seq, 0},                        // crash after the last record
			}
			for ci, cut := range cuts {
				crashDir := filepath.Join(t.TempDir(), fmt.Sprintf("crash%d", ci))
				if err := journal.CrashCopy(refDir, crashDir, cut.seq, cut.torn); err != nil {
					t.Fatalf("cut %d (seq %d): %v", ci, cut.seq, err)
				}
				rcfg := cfg
				rcfg.DataDir = crashDir
				rcfg.Durability = journal.ModeAsync
				resumed, err := Run(rcfg)
				if err != nil {
					t.Fatalf("cut %d (seq %d, torn %d): resume: %v", ci, cut.seq, cut.torn, err)
				}
				if resumed.Recovered.Fresh() {
					t.Fatalf("cut %d (seq %d): resume saw an empty journal", ci, cut.seq)
				}
				if got := resultDump(t, resumed); got != want {
					t.Fatalf("cut %d (seq %d, torn %d): resumed run differs:\n%s",
						ci, cut.seq, cut.torn, firstDumpDiff(got, want))
				}
			}
		})
	}
}

// TestResumeCompletedRun reruns an already-finished journaled study from its
// own directory: everything replays, nothing mutates, and the output still
// matches.
func TestResumeCompletedRun(t *testing.T) {
	cfg := recoverTestConfig(3)
	cfg.Days = 2
	cfg.DataDir = filepath.Join(t.TempDir(), "data")
	cfg.Durability = journal.ModeSync

	first := run(t, cfg)
	want := resultDump(t, first)
	second, err := Run(cfg)
	if err != nil {
		t.Fatalf("rerun: %v", err)
	}
	if second.Recovered.Fresh() {
		t.Fatal("rerun recovered nothing")
	}
	if got := resultDump(t, second); got != want {
		t.Fatalf("rerun differs:\n%s", firstDumpDiff(got, want))
	}
}
