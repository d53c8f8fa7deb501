package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"reflect"
	"testing"
	"time"

	"dropzero/internal/measure"
	"dropzero/internal/model"
	"dropzero/internal/simtime"
	"dropzero/internal/zone"
)

// nordicTestZone is the .se/.nu-shaped instant-release zone the federation
// tests run beside the default paced zone.
func nordicTestZone() zone.Config {
	return zone.Config{
		Name:      "nordic",
		TLDs:      []model.TLD{"se", "nu"},
		Lifecycle: zone.DefaultLifecycleConfig(),
		Drop:      zone.DropConfig{StartHour: 4},
		Policy:    zone.PolicyInstant,
	}
}

// shuffleTestZone is a randomized-order countermeasure zone.
func shuffleTestZone() zone.Config {
	return zone.Config{
		Name:      "shuffle",
		TLDs:      []model.TLD{"io"},
		Lifecycle: zone.DefaultLifecycleConfig(),
		Drop:      zone.DefaultDropConfig(),
		Policy:    zone.PolicyRandom,
		Salt:      23,
	}
}

// TestFederationExplicitDefaultZoneDifferential is the compatibility
// guarantee of the federation work: spelling out the default .com/.net zone
// in Config.Zones must be byte-identical to the pre-federation empty config,
// across seeds — same CSV dataset, same deletion log, same Drop end instants,
// same pipeline stats.
func TestFederationExplicitDefaultZoneDifferential(t *testing.T) {
	for _, seed := range []int64{1, 42, 20180108} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			cfg := DefaultConfig()
			cfg.Seed = seed
			cfg.Days = 2
			cfg.Scale = 0.01
			cfg.FinalizeAfterDays = 57

			run := func(zones []zone.Config) (*Result, []byte) {
				c := cfg
				c.Zones = zones
				res, err := Run(c)
				if err != nil {
					t.Fatalf("zones=%v: %v", zones, err)
				}
				var buf bytes.Buffer
				if err := measure.WriteCSV(&buf, res.Observations); err != nil {
					t.Fatal(err)
				}
				return res, buf.Bytes()
			}
			legacyRes, legacyCSV := run(nil)
			if len(legacyRes.Observations) == 0 {
				t.Fatal("legacy run produced no observations")
			}
			fedRes, fedCSV := run([]zone.Config{zone.Default()})

			if !bytes.Equal(legacyCSV, fedCSV) {
				t.Fatalf("CSV datasets differ: %d bytes vs %d bytes", len(legacyCSV), len(fedCSV))
			}
			if !sameDeletions(legacyRes.Deletions, fedRes.Deletions) {
				t.Fatal("deletion event logs differ")
			}
			if !reflect.DeepEqual(legacyRes.DropEnd, fedRes.DropEnd) {
				t.Fatal("Drop end instants differ")
			}
			if !reflect.DeepEqual(legacyRes.PipelineStats, fedRes.PipelineStats) {
				t.Fatal("pipeline stats differ")
			}
			if len(fedRes.Zones) != 1 || fedRes.Zones[0].Name != zone.Default().Name {
				t.Fatalf("federated run's zone list = %+v, want just the default zone", fedRes.Zones)
			}
		})
	}
}

// TestFederationExtraZonesDoNotPerturbCore: adding instant and randomized
// zones beside the default zone must leave the default zone's study — its
// deletion sequence (names, instants, ranks) and its measured dataset —
// unchanged, while the extra zones drop under their own policies. Domain IDs
// are allowed to differ (the populations interleave in creation order);
// nothing else is.
func TestFederationExtraZonesDoNotPerturbCore(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Days = 2
	cfg.Scale = 0.01
	cfg.FinalizeAfterDays = 57

	base, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fedCfg := cfg
	fedCfg.Zones = []zone.Config{nordicTestZone(), shuffleTestZone()}
	fed, err := Run(fedCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(fed.Zones) != 3 {
		t.Fatalf("federated run hosts %d zones, want 3", len(fed.Zones))
	}

	def := zone.Default()
	coreTLDs := def.TLDSet()
	coreEvents := func(res *Result, day simtime.Day) []string {
		var out []string
		for _, ev := range res.Deletions[day] {
			if tld, _ := model.TLDOf(ev.Name()); coreTLDs[tld] {
				out = append(out, fmt.Sprintf("%s rank=%d at=%s", ev.Name(), ev.Rank(), ev.Time().UTC().Format(time.RFC3339)))
			}
		}
		return out
	}
	nordicSaw, shuffleSaw := 0, 0
	for day := range base.Deletions {
		if !reflect.DeepEqual(coreEvents(base, day), coreEvents(fed, day)) {
			t.Fatalf("%v: core-zone deletion sequence perturbed by extra zones", day)
		}
		instant := day.At(4, 0, 0)
		for _, ev := range fed.Deletions[day] {
			tld, _ := model.TLDOf(ev.Name())
			switch {
			case tld == "se" || tld == "nu":
				nordicSaw++
				if !ev.Time().Equal(instant) {
					t.Fatalf("instant-release deletion %s at %v, want %v", ev.Name(), ev.Time(), instant)
				}
			case tld == "io":
				shuffleSaw++
			}
		}
	}
	if nordicSaw == 0 || shuffleSaw == 0 {
		t.Fatalf("extra zones produced no deletions (nordic=%d shuffle=%d)", nordicSaw, shuffleSaw)
	}

	// The measured dataset is .com-scoped and must be untouched name for
	// name, re-registration for re-registration.
	if len(base.Observations) != len(fed.Observations) {
		t.Fatalf("observation counts differ: %d vs %d", len(base.Observations), len(fed.Observations))
	}
	for i := range base.Observations {
		a, b := &base.Observations[i], &fed.Observations[i]
		if a.Name() != b.Name() {
			t.Fatalf("observation %d: %s vs %s", i, a.Name(), b.Name())
		}
		if a.Reregistered() != b.Reregistered() {
			t.Fatalf("observation %s: re-registration presence differs", a.Name())
		}
		if a.Reregistered() && !a.ReregTime().Equal(b.ReregTime()) {
			t.Fatalf("observation %s: re-registration instant differs", a.Name())
		}
	}

	// Extra-zone names get market verdicts of their own.
	truths := 0
	for day, evs := range fed.Deletions {
		for k, ev := range evs {
			if tld := ev.TLD(); (tld == "se" || tld == "nu" || tld == "io") && k < len(fed.Truths[day]) {
				truths++
			}
		}
	}
	if truths == 0 {
		t.Fatal("no ground truth recorded for extra-zone names")
	}
}

// TestFederationDurableResume: a federated study resumed from its own
// finished journal must reproduce the identical dataset — MutAddZone replay,
// zone re-verification and per-zone reseeding all have to agree with the
// first pass.
func TestFederationDurableResume(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Days = 2
	cfg.Scale = 0.01
	cfg.FinalizeAfterDays = 57
	cfg.Zones = []zone.Config{nordicTestZone()}
	cfg.DataDir = t.TempDir()

	runCSV := func() []byte {
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := measure.WriteCSV(&buf, res.Observations); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first := runCSV()
	resumed := runCSV()
	if !bytes.Equal(first, resumed) {
		t.Fatal("resumed federated study differs from the original run")
	}
}

// TestFederatedStudyPinned holds a federated study to fixed digests of its
// dataset CSV, its zone-delay CSV and its deletion log as (name, instant,
// rank) per day. The other federation tests compare two runs of one build,
// which a changed lane order or per-zone seed stream passes; this one fails.
func TestFederatedStudyPinned(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Days = 2
	cfg.Scale = 0.01
	cfg.Zones = []zone.Config{nordicTestZone(), shuffleTestZone()}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	digest := func(write func(io.Writer) error) string {
		h := sha256.New()
		if err := write(h); err != nil {
			t.Fatal(err)
		}
		return hex.EncodeToString(h.Sum(nil))
	}
	got := map[string]string{
		"dataset": digest(func(w io.Writer) error { return measure.WriteCSV(w, res.Observations) }),
		"delays":  digest(func(w io.Writer) error { return WriteZoneDelaysCSV(w, res.ZoneDelays()) }),
		"deletions": digest(func(w io.Writer) error {
			day := cfg.StartDay
			for range cfg.Days {
				fmt.Fprintf(w, "%v\n", day)
				for _, ev := range res.Deletions[day] {
					fmt.Fprintf(w, "%s,%s,%d\n", ev.Name(), ev.Time().UTC().Format(time.RFC3339Nano), ev.Rank())
				}
				day = day.Next()
			}
			return nil
		}),
	}
	want := map[string]string{
		"dataset":   "6f158080de1e5be0f98b4149b32f0881efc3a41dc3b8009600ceddabc91373bd",
		"delays":    "8ada0de343b444606d7e7d86b28c9842b828b9950f828bdbb03f294dde3ca5f1",
		"deletions": "1c1ec6bae734cf9e2e08f93242bf4d3756d1ef82ea0c966d035cf275de4623b8",
	}
	for k := range want {
		if got[k] != want[k] {
			t.Errorf("%s digest = %s, want %s", k, got[k], want[k])
		}
	}
}
