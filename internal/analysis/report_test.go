package analysis_test

import (
	"sync"
	"testing"

	"dropzero/internal/analysis"
	"dropzero/internal/sim"
)

// study is one moderate simulation shared by all analysis tests.
var study = sync.OnceValues(func() (*sim.Result, error) {
	cfg := sim.DefaultConfig()
	cfg.Days = 14
	cfg.Scale = 0.05
	return sim.Run(cfg)
})

func studyResult(t *testing.T) *sim.Result {
	t.Helper()
	res, err := study()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func studyAnalysis(t *testing.T) *analysis.Analysis {
	res := studyResult(t)
	return analysis.New(analysis.Input{
		Observations: res.Observations,
		Registrars:   res.Registrars,
		ServiceOf:    res.Directory.ServiceOf,
		Deletions:    res.Deletions,
	})
}

func TestFullReport(t *testing.T) {
	if testing.Short() {
		t.Skip("full report needs a multi-day simulation")
	}
	a := studyAnalysis(t)
	r := a.BuildReport()
	t.Log("\n" + r.String())
}
