package storm

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dropzero/internal/epp"
	"dropzero/internal/loadgen"
	"dropzero/internal/model"
	"dropzero/internal/registry"
	"dropzero/internal/simtime"
	"dropzero/internal/zone"
)

// multiZoneFixture hosts three zones in one store — the paced default, an
// instant-release .se zone and a randomized-order .io zone — each with its
// own contested names and its own release schedule.
type multiZoneFixture struct {
	store   *registry.Store
	addr    string
	creds   map[int]string
	names   []string
	drop    []registry.Scheduled
	release func([]registry.Scheduled) error
}

func newMultiZoneFixture(t testing.TB, accreds []int) *multiZoneFixture {
	t.Helper()
	day := simtime.Day{Year: 2018, Month: time.March, Dom: 8}
	clock := simtime.NewSimClock(day.At(18, 59, 0))
	store := registry.NewStoreWithShards(clock, 8)
	creds := make(map[int]string)
	for _, a := range accreds {
		store.AddRegistrar(model.Registrar{IANAID: a, Name: fmt.Sprintf("Accred %d", a)})
		creds[a] = fmt.Sprintf("tok-%d", a)
	}
	nordic := zone.Config{
		Name: "nordic", TLDs: []model.TLD{"se"},
		Lifecycle: zone.DefaultLifecycleConfig(),
		Drop:      zone.DropConfig{StartHour: 19, StartMinute: 5},
		Policy:    zone.PolicyInstant,
	}
	shuffle := zone.Config{
		Name: "shuffle", TLDs: []model.TLD{"io"},
		Lifecycle: zone.DefaultLifecycleConfig(),
		Drop:      zone.DropConfig{StartHour: 19, BaseRatePerSec: 10000},
		Policy:    zone.PolicyRandom,
		Salt:      5,
	}
	for _, z := range []zone.Config{nordic, shuffle} {
		if err := store.AddZone(z); err != nil {
			t.Fatal(err)
		}
	}

	var names []string
	var offsets []time.Duration
	seed := func(name string, off time.Duration, i int) {
		updated := day.AddDays(-35).At(6, 30, i)
		if _, err := store.SeedAt(name, accreds[0], updated.AddDate(-2, 0, 0), updated,
			updated.AddDate(0, 0, -30), model.StatusPendingDelete, day); err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
		offsets = append(offsets, off)
	}
	for i := 0; i < 4; i++ { // paced: staggered drops
		seed(fmt.Sprintf("core%02d.com", i), 100*time.Millisecond+time.Duration(i)*25*time.Millisecond, i)
	}
	for i := 0; i < 4; i++ { // instant release: everything at one offset
		seed(fmt.Sprintf("fjord%02d.se", i), 150*time.Millisecond, i)
	}
	for i := 0; i < 2; i++ { // randomized order
		seed(fmt.Sprintf("rng%02d.io", i), 200*time.Millisecond+time.Duration(i)*25*time.Millisecond, i)
	}

	// Each zone's runner schedules its own queue under its own policy; the
	// storm's Release callback purges through whichever zone a name belongs
	// to.
	byName := make(map[string]registry.Scheduled)
	scheduleZone := func(z zone.Config, seed int64) {
		r, err := registry.NewZoneDropRunner(store, z)
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range r.Schedule(day, rand.New(rand.NewSource(seed))) {
			if _, dup := byName[sc.Name]; dup {
				t.Fatalf("name %s scheduled by two zones", sc.Name)
			}
			byName[sc.Name] = sc
		}
	}
	core := zone.Default()
	core.Drop.BaseRatePerSec = 10000
	scheduleZone(core, 1)
	scheduleZone(nordic, 2)
	scheduleZone(shuffle, 3)
	if len(byName) != len(names) {
		t.Fatalf("scheduled %d deletions, want %d", len(byName), len(names))
	}
	runners := map[model.TLD]*registry.DropRunner{}
	for _, z := range []zone.Config{core, nordic, shuffle} {
		r, err := registry.NewZoneDropRunner(store, z)
		if err != nil {
			t.Fatal(err)
		}
		for _, tld := range z.TLDs {
			runners[tld] = r
		}
	}

	srv := epp.NewServer(store, clock, epp.ServerConfig{Credentials: creds})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	clock.Set(day.At(19, 0, 0))
	drop := make([]registry.Scheduled, len(names))
	for i, name := range names {
		drop[i] = byName[name]
		drop[i].Time = day.At(19, 0, 0).Add(offsets[i])
	}
	return &multiZoneFixture{
		store: store, addr: addr.String(), creds: creds, names: names, drop: drop,
		release: func(batch []registry.Scheduled) error {
			for _, sc := range batch {
				if _, err := runners[sc.TLD].Apply(sc); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

// TestStormMultiZoneFCFS races two services over a three-zone store — paced,
// instant-release and randomized-order side by side — and audits FCFS per
// zone: every zone's names won exactly once, no cross-zone leakage, the
// registry agreeing with every ack, and the per-TLD/per-zone report groups
// accounting for every name and attempt.
func TestStormMultiZoneFCFS(t *testing.T) {
	accredsA := []int{1000, 1001}
	accredsB := []int{2000, 2001}
	fx := newMultiZoneFixture(t, append(append([]int{}, accredsA...), accredsB...))

	sched := loadgen.DropCatchSchedule{
		Lead:         60 * time.Millisecond,
		FastInterval: 15 * time.Millisecond,
		FastRetries:  30,
		Horizon:      2 * time.Second,
	}
	rep, err := Run(Config{
		Dial:       func() (*epp.Client, error) { return epp.Dial(fx.addr) },
		Credential: func(a int) string { return fx.creds[a] },
		Drop:       fx.drop,
		Release:    fx.release,
		Profiles: []ClientProfile{
			{Service: "CatcherA", Accreditations: accredsA, Sessions: 4, Schedule: sched,
				Compliant: true, PerDomainInFlight: 2},
			{Service: "CatcherB", Accreditations: accredsB, Sessions: 4, Schedule: sched,
				PerDomainInFlight: 2},
		},
		Zones: fx.store.Zones(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.DropErrors) != 0 {
		t.Fatalf("drop errors: %v", rep.DropErrors)
	}
	if len(rep.Winners) != len(fx.names) {
		t.Fatalf("%d names won, want %d (unclaimed: %v)", len(rep.Winners), len(fx.names), rep.Unclaimed)
	}
	if len(rep.MultiAcks) != 0 {
		t.Fatalf("names acked more than once: %v", rep.MultiAcks)
	}
	if err := rep.VerifyWins(fx.store); err != nil {
		t.Fatalf("registry disagrees with acks: %v", err)
	}

	if len(rep.ByZone) != 3 {
		t.Fatalf("ByZone has %d groups, want 3: %+v", len(rep.ByZone), rep.ByZone)
	}
	var totalNames int
	var totalAttempts uint64
	wantZoneNames := map[string]int{"core": 4, "nordic": 4, "shuffle": 2}
	for _, g := range rep.ByZone {
		if g.Names != wantZoneNames[g.Key] {
			t.Errorf("zone %s has %d names, want %d", g.Key, g.Names, wantZoneNames[g.Key])
		}
		if g.Wins != uint64(g.Names) || g.MultiAcks != 0 || g.Unclaimed != 0 {
			t.Errorf("zone %s FCFS audit: wins=%d names=%d multiAcks=%d unclaimed=%d",
				g.Key, g.Wins, g.Names, g.MultiAcks, g.Unclaimed)
		}
		if g.Attempts == 0 || g.Creates.Requests != g.Attempts {
			t.Errorf("zone %s attempts=%d creates=%d", g.Key, g.Attempts, g.Creates.Requests)
		}
		if g.Creates.Percentile(99.9) <= 0 {
			t.Errorf("zone %s has no latency tail", g.Key)
		}
		totalNames += g.Names
		totalAttempts += g.Attempts
	}
	if totalNames != len(fx.names) {
		t.Errorf("zone groups cover %d names, want %d", totalNames, len(fx.names))
	}
	if totalAttempts != rep.Creates.Requests {
		t.Errorf("zone groups cover %d attempts, want %d", totalAttempts, rep.Creates.Requests)
	}

	// The instant-release zone's wins must cluster at one drop instant:
	// every .se delay is measured from the same simultaneous release.
	for name, w := range rep.Winners {
		if tld, _ := model.TLDOf(name); tld == "se" && w.Delay < 0 {
			t.Errorf("instant-release win %s has negative delay %v", name, w.Delay)
		}
	}
}
