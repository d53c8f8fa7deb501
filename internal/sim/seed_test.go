package sim

import (
	"math/rand"
	"slices"
	"testing"

	"dropzero/internal/registrars"
	"dropzero/internal/registry"
	"dropzero/internal/zone"
)

// BenchmarkPopulation times what a study builds before it touches the
// store: one day's population at scale 0.25 (the benchmark harness's study
// set-up), generated and indexed by name.
func BenchmarkPopulation(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Scale, cfg.Days, cfg.Seed = 0.25, 1, 1
	dir := registrars.BuildDirectory(rand.New(rand.NewSource(cfg.Seed)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		specs := newSeeder(cfg, dir, zone.Default().TLDs, cfg.Seed).generate(registry.DefaultLifecycleConfig())
		if len(lotMetas(specs)) != len(specs) {
			b.Fatal("names repeat")
		}
	}
}

// TestSortByCreationIsStable holds sortByCreation to a stable sort on the
// creation second, ties included.
func TestSortByCreationIsStable(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale, cfg.Days = 0.02, 3
	dir := registrars.BuildDirectory(rand.New(rand.NewSource(cfg.Seed)))
	s := newSeeder(cfg, dir, zone.Default().TLDs, cfg.Seed)
	var specs []domainSpec
	day := cfg.StartDay
	for i := 0; i < cfg.Days; i++ {
		specs = append(specs, s.specsForDay(day, 300, registry.DefaultLifecycleConfig())...)
		day = day.Next()
	}
	// Whole days of ties: every spec of a day on one of two seconds.
	for i := range specs {
		if i%3 == 0 {
			specs[i].created = specs[i%7].created
		}
	}
	want := slices.Clone(specs)
	slices.SortStableFunc(want, func(a, b domainSpec) int { return a.created.Compare(b.created) })
	sortByCreation(specs)
	for i := range specs {
		if specs[i].name != want[i].name {
			t.Fatalf("position %d: %s, want %s", i, specs[i].name, want[i].name)
		}
	}
	sortByCreation(nil)
}
