package sim

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"dropzero/internal/dropscope"
	"dropzero/internal/inproc"
	"dropzero/internal/measure"
	"dropzero/internal/model"
	"dropzero/internal/rdap"
	"dropzero/internal/registrars"
	"dropzero/internal/registry"
	"dropzero/internal/safebrowsing"
	"dropzero/internal/simtime"
	"dropzero/internal/whois"
	"dropzero/internal/zone"
)

// TestBoundClientsMatchHTTP: a small study's lookups, made against one store
// both through the bound RDAP and list clients Run uses and through HTTP
// clients of the same servers over the in-process transport, collect the
// same deltas every day and finish to the same dataset and counters —
// re-registrations, names left free and the WHOIS fallback included.
func TestBoundClientsMatchHTTP(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Days, cfg.Scale = 3, 0.01
	rng := rand.New(rand.NewSource(cfg.Seed))
	dir := registrars.BuildDirectory(rng)
	clock := simtime.NewSimClock(cfg.StartDay.At(9, 0, 0))
	store := registry.NewStore(clock)
	for _, r := range dir.Registrars() {
		store.AddRegistrar(r)
	}
	if err := insertAll(store, newSeeder(cfg, dir, zone.Default().TLDs, cfg.Seed).generate(registry.DefaultLifecycleConfig()), false); err != nil {
		t.Fatal(err)
	}

	failures := map[int]int{}
	for _, id := range dir.Accreditations(registrars.SvcOther)[:20] {
		failures[id] = 500
	}
	rdapSrv := rdap.NewServer(store, rdap.ServerConfig{FailRegistrars: failures})
	scopeSrv := dropscope.NewServer(store)
	oracle := safebrowsing.NewOracle()
	pipeline := func(lists *dropscope.Client, lookups *rdap.Client) *measure.Pipeline {
		return &measure.Pipeline{Lists: lists, RDAP: lookups, WHOIS: whois.NewBoundClient(whois.NewServer(store)),
			Oracle: safebrowsing.NewBoundClient(oracle), TLDFilter: model.COM, TrackDeltas: true}
	}
	httpLists, err := dropscope.NewClient("http://scope.test", inproc.Client(scopeSrv.Handler()))
	if err != nil {
		t.Fatal(err)
	}
	httpRDAP, err := rdap.NewClient("http://rdap.test", inproc.Client(rdapSrv.Handler()))
	if err != nil {
		t.Fatal(err)
	}
	bound := pipeline(dropscope.NewBoundClient(scopeSrv), rdap.NewBoundClient(rdapSrv))
	overHTTP := pipeline(httpLists, httpRDAP)

	ctx := context.Background()
	runner := registry.NewDropRunner(store, cfg.scaledZoneDrop(zone.Default()))
	catcher := dir.Registrars()[0].IANAID
	day := cfg.StartDay
	for i := 0; i < cfg.Days; i++ {
		clock.Set(day.At(10, 0, 0))
		for _, p := range []*measure.Pipeline{bound, overHTTP} {
			if err := p.CollectDaily(ctx, day); err != nil {
				t.Fatal(err)
			}
		}
		if b, h := bound.TakeDelta(), overHTTP.TakeDelta(); !reflect.DeepEqual(b, h) {
			t.Fatalf("%v: bound clients collected\n%+v\nHTTP clients\n%+v", day, b, h)
		}
		clock.Set(day.At(19, 0, 0))
		events, err := runner.Run(day, rng)
		if err != nil {
			t.Fatal(err)
		}
		for k, ev := range events {
			if k%2 == 0 {
				if _, err := store.CreateAt(ev.Name(), catcher, 1, ev.Time().Add(time.Duration(k)*time.Second)); err != nil {
					t.Fatal(err)
				}
				oracle.Set(ev.Name(), k%4 == 0)
			}
		}
		day = day.Next()
	}

	clock.Set(day.AddDays(cfg.FinalizeAfterDays).At(12, 0, 0))
	rows, err := bound.Finalize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	httpRows, err := overHTTP.Finalize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.EqualFunc(rows, httpRows, model.Observation.Equal) {
		t.Fatalf("bound clients finished to %d rows, HTTP clients to %d, and they differ", len(rows), len(httpRows))
	}
	st := bound.Stats()
	if st != overHTTP.Stats() {
		t.Fatalf("stats: bound %+v, HTTP %+v", st, overHTTP.Stats())
	}
	if st.Reregistered == 0 || st.NotReregistered == 0 || st.WHOISFallbacks == 0 || st.OracleLookups == 0 {
		t.Fatalf("the study exercised too little: %+v", st)
	}
	t.Logf("%d rows; %+v", len(rows), st)
}
