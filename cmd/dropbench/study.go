package main

import (
	"crypto/sha256"
	"encoding/hex"
	"time"

	"dropzero/internal/measure"
	"dropzero/internal/sim"
)

// runStudy is the reproduction itself: the memory-only measurement study,
// which drives the registry through bulk sweeps and the read surfaces through
// the pipeline, all in-process.
func runStudy(o options) (*result, error) {
	r := newResult("study", o.traced())
	cfg := sim.DefaultConfig()
	cfg.Seed = o.seed
	cfg.Scale = o.size.studyScale
	cfg.Parallelism = 0

	// Set-up is a one-day study at the same scale: it seeds the same
	// population and leaves the heap grown, so the measured run pays neither
	// first-touch page faults nor heap growth.
	warm := cfg
	warm.Days = 1
	setup, err := medianSetup(o.size.setups, func(bool) (func() error, error) {
		_, err := sim.Run(warm)
		return func() error { return nil }, err
	})
	if err != nil {
		return nil, err
	}
	r.set("setup_s", setup.Seconds())

	cfg.Days = o.size.studyDays
	t0 := time.Now()
	res, err := sim.Run(cfg)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	wall := t1.Sub(t0)
	o.rec.add("sim.run", "study", t0, t1)
	r.set("live_heap_mb", float64(liveHeap())/(1<<20))

	h := sha256.New()
	if err := measure.WriteCSV(h, res.Observations); err != nil {
		return nil, err
	}
	r.digest = hex.EncodeToString(h.Sum(nil))
	deletions := 0
	for _, evs := range res.Deletions {
		deletions += len(evs)
	}

	day := wall / time.Duration(cfg.Days)
	r.set("op.p50_ms", ms(day))
	r.infof("sim.Run: %d days at scale %g in %v = %v per simulated day (one sample)",
		cfg.Days, cfg.Scale, wall.Round(time.Millisecond), day.Round(time.Millisecond))
	r.infof("%d deletions, %d observations, %d lookups; dataset sha256 %s", deletions, len(res.Observations), res.PipelineStats.Lookups, r.digest)
	r.set("sim.deletions", float64(deletions))
	r.set("sim.observations", float64(len(res.Observations)))
	r.set("measure.lookups_per_s", ratio(float64(res.PipelineStats.Lookups), wall.Seconds()))

	r.attempted = 1
	if deletions == 0 || len(res.Observations) == 0 || res.PipelineStats.Lookups == 0 {
		r.failed = 1
		r.problemf("study produced %d deletions, %d observations, %d lookups", deletions, len(res.Observations), res.PipelineStats.Lookups)
	}
	return r, nil
}
