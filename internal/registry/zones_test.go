package registry

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"dropzero/internal/model"
	"dropzero/internal/simtime"
	"dropzero/internal/zone"
)

func nordicZone() zone.Config {
	return zone.Config{
		Name:      "nordic",
		TLDs:      []model.TLD{"se", "nu"},
		Lifecycle: zone.DefaultLifecycleConfig(),
		Drop:      zone.DropConfig{StartHour: 4},
		Policy:    zone.PolicyInstant,
	}
}

func TestAddZoneMakesTLDsCreatable(t *testing.T) {
	s, _ := testStore(t)
	if err := s.CheckName("foo.se"); !errors.Is(err, ErrUnknownTLD) {
		t.Fatalf("pre-AddZone CheckName = %v, want ErrUnknownTLD", err)
	}
	if _, err := s.Create("foo.se", 1000, 1); !errors.Is(err, ErrUnknownTLD) {
		t.Fatalf("pre-AddZone Create = %v, want ErrUnknownTLD", err)
	}

	genBefore := s.Generation()
	if err := s.AddZone(nordicZone()); err != nil {
		t.Fatal(err)
	}
	if s.Generation() == genBefore {
		t.Error("AddZone did not bump the generation (caches would serve stale zone sets)")
	}
	if err := s.CheckName("foo.se"); err != nil {
		t.Fatalf("post-AddZone CheckName: %v", err)
	}
	if !s.HostsTLD("se") || !s.HostsTLD("nu") || s.HostsTLD("org") {
		t.Fatal("HostsTLD wrong after AddZone")
	}
	if z, ok := s.ZoneByName("nordic"); !ok || !z.TLDSet()["nu"] {
		t.Fatalf("ZoneByName(nordic) = %+v, %v; want the zone operating nu", z, ok)
	}
	zs := s.Zones()
	if len(zs) != 2 || zs[0].Name != zone.Default().Name || zs[1].Name != "nordic" {
		t.Fatalf("Zones() = %+v", zs)
	}
	if _, err := s.Create("foo.se", 1000, 1); err != nil {
		t.Fatalf("post-AddZone Create: %v", err)
	}
}

func TestAddZoneRejectsConflicts(t *testing.T) {
	s, _ := testStore(t)
	if err := s.AddZone(nordicZone()); err != nil {
		t.Fatal(err)
	}
	if err := s.AddZone(nordicZone()); err == nil {
		t.Error("duplicate zone name accepted")
	}
	clash := nordicZone()
	clash.Name = "clash"
	clash.TLDs = []model.TLD{"org", "com"}
	if err := s.AddZone(clash); err == nil {
		t.Error("TLD overlap with the default zone accepted")
	}
	bad := nordicZone()
	bad.Name = "bad"
	bad.TLDs = nil
	if err := s.AddZone(bad); err == nil {
		t.Error("TLD-less zone accepted")
	}
	// Failed additions must not leave partial state behind.
	if s.HostsTLD("org") {
		t.Error("rejected zone's TLD became hosted")
	}
}

// InstallZones adds a zone the store does not host, accepts a recovered one
// that matches its configuration without journaling anything, and refuses a
// recovered one that does not, naming both configurations.
func TestInstallZones(t *testing.T) {
	install := func(t *testing.T, hosted *zone.Config, configured zone.Config) ([]Mutation, error) {
		t.Helper()
		s, _ := testStore(t)
		if hosted != nil {
			if err := s.AddZone(*hosted); err != nil {
				t.Fatal(err)
			}
		}
		cap := &captureJournal{}
		s.SetJournal(cap)
		err := s.InstallZones([]zone.Config{configured})
		return cap.records, err
	}

	t.Run("fresh", func(t *testing.T) {
		recs, err := install(t, nil, nordicZone())
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 1 || recs[0].Kind != MutAddZone || recs[0].Zone.Name != "nordic" {
			t.Fatalf("journaled %+v, want one MutAddZone for nordic", recs)
		}
	})
	t.Run("recovered-identical", func(t *testing.T) {
		z := nordicZone()
		recs, err := install(t, &z, nordicZone())
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 0 {
			t.Fatalf("journaled %+v for a zone already hosted", recs)
		}
	})
	otherTLDs, otherPolicy := nordicZone(), nordicZone()
	otherTLDs.TLDs = []model.TLD{"se"}
	otherPolicy.Policy = zone.PolicyRandom
	for name, configured := range map[string]zone.Config{"recovered-tlds-differ": otherTLDs, "recovered-policy-differs": otherPolicy} {
		t.Run(name, func(t *testing.T) {
			hosted := nordicZone()
			recs, err := install(t, &hosted, configured)
			if err == nil {
				t.Fatal("mismatching recovered zone accepted")
			}
			for _, want := range []string{
				fmt.Sprintf("(%v %s)", hosted.TLDs, hosted.Policy),
				fmt.Sprintf("(%v %s)", configured.TLDs, configured.Policy),
			} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not name configuration %s", err, want)
				}
			}
			if len(recs) != 0 {
				t.Fatalf("journaled %+v on refusal", recs)
			}
		})
	}
}

// Zone additions travel the same mutation stream as everything else: a
// replayed MutAddZone must make the TLDs creatable exactly where the original
// did, so records after it apply cleanly.
func TestAddZoneReplays(t *testing.T) {
	cap := &captureJournal{}
	clock := testClock()
	src := NewStore(clock)
	src.SetJournal(cap)
	src.AddRegistrar(model.Registrar{IANAID: 1000, Name: "Test Registrar"})
	if _, err := src.Create("before.com", 1000, 1); err != nil {
		t.Fatal(err)
	}
	if err := src.AddZone(nordicZone()); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Create("after.se", 1000, 1); err != nil {
		t.Fatal(err)
	}

	replayed := NewStore(testClock())
	for _, m := range cap.records {
		if err := replayed.Apply(m); err != nil {
			t.Fatalf("Apply(%s): %v", m.Kind, err)
		}
	}
	if z, ok := replayed.ZoneByName("nordic"); !ok || !z.TLDSet()["se"] || z.Policy != zone.PolicyInstant {
		t.Fatalf("replayed store ZoneByName(nordic) = %+v, %v", z, ok)
	}
	for _, name := range []string{"before.com", "after.se"} {
		if _, err := replayed.Get(name); err != nil {
			t.Errorf("replayed store missing %s: %v", name, err)
		}
	}

	// The batch path must honour the same ordering barrier.
	batched := NewStore(testClock())
	if err := batched.ApplyBatch(cap.records, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := batched.Get("after.se"); err != nil {
		t.Errorf("ApplyBatch lost the post-zone create: %v", err)
	}
	if !batched.HostsTLD("nu") {
		t.Error("ApplyBatch lost the zone")
	}
}

// A MutAddZone record carrying a zone AddZone would refuse — what a WAL or
// replication stream decodes is whatever its bytes say — is refused on
// replay too, one record at a time and inside a batch, and leaves the zone
// table as it was.
func TestReplayRefusesInvalidZone(t *testing.T) {
	spoil := map[string]func(z *zone.Config){
		"unknown policy": func(z *zone.Config) { z.Policy = "lottery" },
		"empty TLD":      func(z *zone.Config) { z.TLDs = []model.TLD{"se", ""} },
		"dotted TLD":     func(z *zone.Config) { z.TLDs = []model.TLD{"co.se"} },
		"start hour 99":  func(z *zone.Config) { z.Drop.StartHour = 99 },
	}
	paths := map[string]func(s *Store, m Mutation) error{
		"Apply": func(s *Store, m Mutation) error { return s.Apply(m) },
		"ApplyBatch": func(s *Store, m Mutation) error {
			return s.ApplyBatch([]Mutation{{Kind: MutAddRegistrar, Registrar: model.Registrar{IANAID: 1002}}, m}, 2)
		},
	}
	for what, spoil := range spoil {
		for path, apply := range paths {
			t.Run(what+"/"+path, func(t *testing.T) {
				z := nordicZone()
				spoil(&z)
				s, _ := testStore(t)
				before := fmt.Sprint(s.Zones())
				if err := apply(s, Mutation{Kind: MutAddZone, Zone: z}); err == nil {
					t.Fatalf("replayed zone %+v was installed", z)
				}
				if after := fmt.Sprint(s.Zones()); after != before {
					t.Fatalf("refused zone changed the zone table:\n before %s\n after  %s", before, after)
				}
				if s.HostsTLD("se") {
					t.Fatal("a TLD of the refused zone is operated")
				}
			})
		}
	}
}

// One store, two zones, one deletion day: each zone's runner must see only
// its own names, together covering the whole bucket.
func TestZoneScopedDropQueues(t *testing.T) {
	s, _ := testStore(t)
	if err := s.AddZone(nordicZone()); err != nil {
		t.Fatal(err)
	}
	day := simtime.Day{Year: 2018, Month: time.February, Dom: 1}
	seed := func(name string) {
		t.Helper()
		created := time.Date(2016, 3, 1, 10, 0, 0, 0, time.UTC)
		updated := time.Date(2018, 1, 10, 14, 0, 0, 0, time.UTC)
		expiry := time.Date(2017, 12, 1, 10, 0, 0, 0, time.UTC)
		if _, err := s.SeedAt(name, 1000, created, updated, expiry, model.StatusPendingDelete, day); err != nil {
			t.Fatal(err)
		}
	}
	seed("alpha.com")
	seed("beta.net")
	seed("gamma.se")
	seed("delta.nu")

	core, err := NewZoneDropRunner(s, zone.Default())
	if err != nil {
		t.Fatal(err)
	}
	nordic, err := NewZoneDropRunner(s, nordicZone())
	if err != nil {
		t.Fatal(err)
	}
	names := func(q []QueueEntry) map[string]bool {
		m := make(map[string]bool, len(q))
		for _, e := range q {
			m[e.Name] = true
		}
		return m
	}
	// NewDropRunner is the default zone's runner: it queues only .com/.net.
	defaultRunner := NewDropRunner(s, DefaultDropConfig())
	if dq := names(defaultRunner.BuildQueue(day)); len(dq) != 2 || !dq["alpha.com"] || !dq["beta.net"] {
		t.Fatalf("default runner's queue = %v", dq)
	}
	cq, nq := names(core.BuildQueue(day)), names(nordic.BuildQueue(day))
	if len(cq) != 2 || !cq["alpha.com"] || !cq["beta.net"] {
		t.Fatalf("core queue = %v", cq)
	}
	if len(nq) != 2 || !nq["gamma.se"] || !nq["delta.nu"] {
		t.Fatalf("nordic queue = %v", nq)
	}

	if _, err := NewZoneDropRunner(s, zone.Config{Name: "ghost", TLDs: []model.TLD{"io"}, Policy: zone.PolicyPaced}); err == nil {
		t.Error("runner for an uninstalled zone accepted")
	}
}

// A runner belongs to the zone it was built for: the default zone's, built
// before another zone is added, never queues that zone's names.
func TestDropRunnerBuiltBeforeAddZone(t *testing.T) {
	s, _ := testStore(t)
	runner := NewDropRunner(s, DefaultDropConfig())
	if err := s.AddZone(nordicZone()); err != nil {
		t.Fatal(err)
	}
	day := simtime.Day{Year: 2018, Month: time.February, Dom: 1}
	created := time.Date(2016, 3, 1, 10, 0, 0, 0, time.UTC)
	updated := time.Date(2018, 1, 10, 14, 0, 0, 0, time.UTC)
	expiry := time.Date(2017, 12, 1, 10, 0, 0, 0, time.UTC)
	for _, name := range []string{"alpha.com", "gamma.se"} {
		if _, err := s.SeedAt(name, 1000, created, updated, expiry, model.StatusPendingDelete, day); err != nil {
			t.Fatal(err)
		}
	}
	if q := runner.BuildQueue(day); len(q) != 1 || q[0].Name != "alpha.com" {
		t.Fatalf("default runner's queue = %+v, want just alpha.com", q)
	}
}
