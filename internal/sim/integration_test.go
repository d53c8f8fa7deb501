package sim

import (
	"context"
	"math/rand"
	"sort"
	"testing"
	"time"

	"dropzero/internal/core"
	"dropzero/internal/dropscope"
	"dropzero/internal/epp"
	"dropzero/internal/inproc"
	"dropzero/internal/measure"
	"dropzero/internal/model"
	"dropzero/internal/rdap"
	"dropzero/internal/registrars"
	"dropzero/internal/registry"
	"dropzero/internal/simtime"
	"dropzero/internal/zone"
)

// TestIntegrationEPPDrivenStudy runs a one-day study where every
// re-registration is performed through a real EPP session over TCP — the
// full wire path from market decision to measured dataset: market claim →
// EPP create → registry store → RDAP lookup → delay analysis.
func TestIntegrationEPPDrivenStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test uses real sockets")
	}
	rng := rand.New(rand.NewSource(21))
	day := simtime.Day{Year: 2018, Month: time.January, Dom: 15}
	clock := simtime.NewSimClock(day.At(9, 0, 0))

	dir := registrars.BuildDirectory(rng)
	store := registry.NewStore(clock)
	for _, r := range dir.Registrars() {
		store.AddRegistrar(r)
	}

	// Seed one deletion day.
	cfg := DefaultConfig()
	cfg.Days = 1
	cfg.Scale = 0.01
	cfg.StartDay = day
	specs := newSeeder(cfg, dir, zone.Default().TLDs, cfg.Seed).generate(registry.DefaultLifecycleConfig())
	if err := insertAll(store, specs, false); err != nil {
		t.Fatal(err)
	}
	meta := lotMetas(specs)

	// EPP over TCP, generous rate limits so the race is decided by claim
	// order, not budget.
	eppSrv := epp.NewServer(store, clock, epp.ServerConfig{
		Credentials: dir.Credentials(),
		CreateBurst: 1000,
		CreateRate:  1000,
	})
	eppAddr, err := eppSrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer eppSrv.Close()

	// Measurement pipeline over the in-process RDAP/lists handlers.
	rdapSrv := rdap.NewServer(store, rdap.ServerConfig{})
	scopeSrv := dropscope.NewServer(store)
	rdapClient, err := rdap.NewClient("http://rdap.internal", inproc.Client(rdapSrv.Handler()))
	if err != nil {
		t.Fatal(err)
	}
	scopeClient, err := dropscope.NewClient("http://scope.internal", inproc.Client(scopeSrv.Handler()))
	if err != nil {
		t.Fatal(err)
	}
	pipe := &measure.Pipeline{Lists: scopeClient, RDAP: rdapClient, TLDFilter: model.COM}
	ctx := context.Background()
	if err := pipe.CollectDaily(ctx, day); err != nil {
		t.Fatal(err)
	}

	// The Drop.
	clock.Set(day.At(19, 0, 0))
	runner := registry.NewDropRunner(store, cfg.scaledZoneDrop(zone.Default()))
	events, err := runner.Run(day, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no deletions")
	}
	dropEnd := registry.EndTime(events)

	// Market claims, materialised through per-accreditation EPP sessions.
	market := registrars.NewMarket(dir, cfg.Market, rand.New(rand.NewSource(5)))
	type planned struct {
		name string
		at   time.Time
		id   int
	}
	var plan []planned
	for _, ev := range events {
		m := meta[ev.Name()]
		claim := market.Decide(registrars.Lot{
			Name: ev.Name(), Value: m.value, AgeYears: m.ageYears,
			DeletedAt: ev.Time(), DropEnd: dropEnd,
		})
		if claim == nil || claim.Delay > 12*time.Hour {
			continue
		}
		plan = append(plan, planned{name: ev.Name(), at: ev.Time().Add(claim.Delay), id: claim.RegistrarID})
	}
	sort.Slice(plan, func(i, j int) bool { return plan[i].at.Before(plan[j].at) })
	if len(plan) == 0 {
		t.Fatal("market claimed nothing")
	}

	sessions := make(map[int]*epp.Client)
	defer func() {
		for _, c := range sessions {
			c.Close()
		}
	}()
	session := func(id int) *epp.Client {
		if c, ok := sessions[id]; ok {
			return c
		}
		c, err := epp.Dial(eppAddr.String())
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Login(id, dir.Credential(id)); err != nil {
			t.Fatal(err)
		}
		sessions[id] = c
		return c
	}
	for _, p := range plan {
		if p.at.After(clock.Now()) {
			clock.Set(p.at)
		}
		d, err := session(p.id).Create(p.name, 1)
		if err != nil {
			t.Fatalf("EPP create %s: %v", p.name, err)
		}
		if !d.Created.Equal(simtime.Trunc(p.at)) {
			t.Fatalf("%s created at %v, want %v", p.name, d.Created, p.at)
		}
	}

	// T+8 weeks: finalize and analyse.
	clock.Set(day.AddDays(60).At(12, 0, 0))
	obs, err := pipe.Finalize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	da, err := core.AnalyzeDay(day, obs, core.DefaultEnvelopeConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(da.Delays) != len(plan) {
		// .net claims are invisible to the .com-filtered pipeline.
		netClaims := 0
		for _, p := range plan {
			if tld, _ := model.TLDOf(p.name); tld == model.NET {
				netClaims++
			}
		}
		if len(da.Delays) != len(plan)-netClaims {
			t.Fatalf("measured %d re-registrations, planned %d (%d .net)",
				len(da.Delays), len(plan), netClaims)
		}
	}
	zero := 0
	for _, d := range da.Delays {
		if d.Delay == 0 {
			zero++
		}
	}
	if zero == 0 {
		t.Fatal("EPP-driven study measured no zero-delay re-registrations")
	}
	t.Logf("EPP-driven study: %d deletions, %d re-registrations (%d at 0 s), %d EPP sessions",
		len(events), len(da.Delays), zero, len(sessions))
}
