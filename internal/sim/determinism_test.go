package sim

import (
	"bytes"
	"reflect"
	"testing"

	"dropzero/internal/analysis"
	"dropzero/internal/measure"
	"dropzero/internal/model"
)

// run is Run(cfg), failing t on an error.
func run(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// runCSV runs a study and writes its dataset as WriteCSV does.
func runCSV(t *testing.T, cfg Config) (*Result, []byte) {
	t.Helper()
	res := run(t, cfg)
	var buf bytes.Buffer
	if err := measure.WriteCSV(&buf, res.Observations); err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes()
}

// TestRunDeterministicAcrossParallelism is the tentpole guarantee: a study
// collected by one lookup worker and the same study collected by eight must
// produce identical observations, pipeline stats, figure outputs and CSV
// bytes. Concurrency may only change wall-clock time, never the data.
func TestRunDeterministicAcrossParallelism(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Days = 4
	cfg.Scale = 0.01
	cfg.FinalizeAfterDays = 57

	seq, par := cfg, cfg
	seq.Parallelism, par.Parallelism = 1, 8
	seqRes, seqCSV := runCSV(t, seq)
	parRes, parCSV := runCSV(t, par)

	if len(seqRes.Observations) == 0 {
		t.Fatal("sequential run produced no observations")
	}
	if !bytes.Equal(seqCSV, parCSV) {
		t.Fatalf("CSV datasets differ: %d bytes vs %d bytes", len(seqCSV), len(parCSV))
	}
	if !reflect.DeepEqual(seqRes.PipelineStats, parRes.PipelineStats) {
		t.Fatalf("pipeline stats differ:\nseq: %+v\npar: %+v", seqRes.PipelineStats, parRes.PipelineStats)
	}
	for i := range seqRes.Observations {
		if !seqRes.Observations[i].Equal(parRes.Observations[i]) {
			t.Fatalf("observation %d differs:\nseq: %+v\npar: %+v",
				i, seqRes.Observations[i], parRes.Observations[i])
		}
	}
	// The row comparison must see a name that differs past its first byte.
	o := &seqRes.Observations[0]
	name := []byte(o.Name())
	name[len(name)-1] ^= 1
	var rereg *model.Rereg
	if o.Reregistered() {
		rereg = &model.Rereg{Time: o.ReregTime(), RegistrarID: o.ReregRegistrar()}
	}
	renamed, err := model.NewObservation(string(name), o.DeleteDay(), o.Prior(), rereg, o.Malicious())
	if err != nil {
		t.Fatal(err)
	}
	if o.Equal(renamed) {
		t.Fatalf("%s and %s compare Equal", o.Name(), renamed.Name())
	}

	// The figure generators must be deterministic across their own knob too.
	figures := func(res *Result, parallelism int) ([]*analysis.Heatmap, []analysis.Fig6Curve) {
		a := analysis.New(analysis.Input{
			Observations: res.Observations,
			Registrars:   res.Registrars,
			ServiceOf:    res.Directory.ServiceOf,
			Deletions:    res.Deletions,
			Parallelism:  parallelism,
		})
		return a.Fig4Panels(analysis.Fig4Clusters),
			a.Fig6ClusterCDFs(analysis.PaperClusters)
	}
	seqPanels, seqCurves := figures(seqRes, 1)
	parPanels, parCurves := figures(parRes, 8)
	if !reflect.DeepEqual(seqPanels, parPanels) {
		t.Fatal("Fig4 panels differ between parallelism 1 and 8")
	}
	if !reflect.DeepEqual(seqCurves, parCurves) {
		t.Fatal("Fig6 curves differ between parallelism 1 and 8")
	}
}
