package registry

import (
	"math/rand"
	"testing"
	"time"

	"dropzero/internal/model"
	"dropzero/internal/simtime"
)

func TestLifecycleFullPipeline(t *testing.T) {
	clock := simtime.NewSimClock(time.Date(2017, 1, 1, 12, 0, 0, 0, time.UTC))
	s := NewStore(clock)
	s.AddRegistrar(model.Registrar{IANAID: 1000})
	cfg := DefaultLifecycleConfig()
	cfg.GraceDays = map[int]int{1000: 40}
	lc := NewLifecycle(s, cfg)

	d, err := s.Create("expiring.com", 1000, 1)
	if err != nil {
		t.Fatal(err)
	}

	// Just before expiry: nothing happens.
	clock.Set(d.Expiry.Add(-time.Hour))
	if n := lc.Tick(clock.Now()); n != 0 {
		t.Fatalf("transitions before expiry: %d", n)
	}

	// At expiry: auto-renew grace.
	clock.Set(d.Expiry.Add(time.Hour))
	if n := lc.Tick(clock.Now()); n != 1 {
		t.Fatalf("transitions at expiry: %d", n)
	}
	got, _ := s.Get("expiring.com")
	if got.Status != model.StatusAutoRenew {
		t.Fatalf("status = %v, want autoRenew", got.Status)
	}

	// During grace: still autoRenew.
	clock.Set(d.Expiry.AddDate(0, 0, 20))
	lc.Tick(clock.Now())
	got, _ = s.Get("expiring.com")
	if got.Status != model.StatusAutoRenew {
		t.Fatalf("status during grace = %v", got.Status)
	}

	// After grace: registrar deletes → redemption, Updated set to the
	// registrar's batch instant.
	clock.Set(d.Expiry.AddDate(0, 0, 41))
	lc.Tick(clock.Now())
	got, _ = s.Get("expiring.com")
	if got.Status != model.StatusRedemption {
		t.Fatalf("status after grace = %v", got.Status)
	}
	wantBatch := cfg.BatchInstant(simtime.DayOf(clock.Now()), 1000)
	if !got.Updated.Equal(wantBatch) {
		t.Fatalf("Updated = %v, want batch instant %v", got.Updated, wantBatch)
	}

	// After redemption: pendingDelete with a DeleteDay 5 days out.
	clock.Set(got.Updated.AddDate(0, 0, cfg.RedemptionDays+1))
	lc.Tick(clock.Now())
	got, _ = s.Get("expiring.com")
	if got.Status != model.StatusPendingDelete {
		t.Fatalf("status after redemption = %v", got.Status)
	}
	wantDay := simtime.DayOf(clock.Now()).AddDays(cfg.PendingDeleteDays)
	if got.DeleteDay != wantDay {
		t.Fatalf("DeleteDay = %v, want %v", got.DeleteDay, wantDay)
	}

	// The Drop can now purge it on its DeleteDay.
	events, err := NewDropRunner(s, DefaultDropConfig()).Run(wantDay, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Name() != "expiring.com" {
		t.Fatalf("drop events = %+v", events)
	}
}

func TestLifecycleRenewalPreventsExpiry(t *testing.T) {
	clock := simtime.NewSimClock(time.Date(2017, 1, 1, 12, 0, 0, 0, time.UTC))
	s := NewStore(clock)
	s.AddRegistrar(model.Registrar{IANAID: 1000})
	lc := NewLifecycle(s, DefaultLifecycleConfig())

	d, _ := s.Create("renewed.com", 1000, 1)
	clock.Set(d.Expiry.Add(time.Hour))
	lc.Tick(clock.Now())
	// The registrant pays during the grace period: renew.
	if err := s.Renew("renewed.com", 1000, 1); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Get("renewed.com")
	if got.Status != model.StatusActive {
		t.Fatalf("status after renew = %v", got.Status)
	}
	// Grace deadline passes; the renewed domain must stay active.
	clock.Set(d.Expiry.AddDate(0, 0, 50))
	lc.Tick(clock.Now())
	got, _ = s.Get("renewed.com")
	if got.Status != model.StatusActive {
		t.Fatalf("renewed domain expired anyway: %v", got.Status)
	}
}

func TestBatchInstantSharedWithinRegistrar(t *testing.T) {
	cfg := DefaultLifecycleConfig()
	day := simtime.Day{Year: 2018, Month: time.January, Dom: 5}
	a := cfg.BatchInstant(day, 1234)
	b := cfg.BatchInstant(day, 1234)
	if !a.Equal(b) {
		t.Fatal("batch instant not deterministic")
	}
	c := cfg.BatchInstant(day, 1235)
	if a.Equal(c) {
		t.Fatal("different registrars batch at the identical instant")
	}
}

func TestBatchInstantNotMonotonicInID(t *testing.T) {
	cfg := DefaultLifecycleConfig()
	day := simtime.Day{Year: 2018, Month: time.January, Dom: 5}
	increasing := 0
	total := 0
	prev := cfg.BatchInstant(day, 1000)
	for id := 1001; id < 1200; id++ {
		cur := cfg.BatchInstant(day, id)
		if cur.After(prev) {
			increasing++
		}
		total++
		prev = cur
	}
	// A monotonic mapping would make the §4.1 order search unable to
	// distinguish registrar-ID order from update-time order.
	if increasing > total*3/4 {
		t.Fatalf("batch instants nearly monotonic in IANA ID: %d/%d increasing", increasing, total)
	}
}

func TestSpreadGraceDays(t *testing.T) {
	s := NewStore(testClock())
	for i := 0; i < 20; i++ {
		s.AddRegistrar(model.Registrar{IANAID: 1000 + i})
	}
	cfg := DefaultLifecycleConfig()
	SpreadGraceDays(&cfg, s, 25, 45, rand.New(rand.NewSource(1)))
	if len(cfg.GraceDays) != 20 {
		t.Fatalf("GraceDays size = %d", len(cfg.GraceDays))
	}
	distinct := make(map[int]bool)
	for id, g := range cfg.GraceDays {
		if g < 25 || g > 45 {
			t.Fatalf("grace %d out of range for %d", g, id)
		}
		distinct[g] = true
	}
	if len(distinct) < 2 {
		t.Fatal("grace days not spread")
	}
}

func TestLifecycleDeterministicOrder(t *testing.T) {
	run := func() []int {
		clock := simtime.NewSimClock(time.Date(2017, 1, 1, 12, 0, 0, 0, time.UTC))
		s := NewStore(clock)
		s.AddRegistrar(model.Registrar{IANAID: 1000})
		lc := NewLifecycle(s, DefaultLifecycleConfig())
		for i := 0; i < 10; i++ {
			s.Create("d"+string(rune('a'+i))+".com", 1000, 1)
		}
		clock.Set(clock.Now().AddDate(1, 0, 1))
		var order []int
		lc.Tick(clock.Now())
		s.Each(func(d *model.Domain) bool {
			order = append(order, int(d.Status))
			return true
		})
		return order
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("different population")
	}
}

// A Lifecycle belongs to one zone: the default zone's, built before another
// zone is added, must leave that zone's names to the zone's own lifecycle,
// which moves them on the zone's clocks — here a 40-day redemption and a
// 10-day pendingDelete window, against .com's 30 and 5.
func TestLifecycleScopedToItsZone(t *testing.T) {
	s, clock := testStore(t)
	def := NewLifecycle(s, DefaultLifecycleConfig())
	slow := nordicZone()
	slow.Lifecycle.RedemptionDays, slow.Lifecycle.PendingDeleteDays = 40, 10
	if err := s.AddZone(slow); err != nil {
		t.Fatal(err)
	}
	now := clock.Now()
	today := simtime.DayOf(now)
	updated := now.AddDate(0, 0, -40)
	created := updated.AddDate(-2, 0, 0)
	expiry := updated.AddDate(0, 0, -30)
	if _, err := s.SeedAt("slow.se", 1000, created, updated, expiry, model.StatusRedemption, simtime.Day{}); err != nil {
		t.Fatal(err)
	}

	if n := def.Tick(now); n != 0 {
		t.Fatalf("default zone's lifecycle made %d transitions on another zone's name", n)
	}
	if d, _ := s.Get("slow.se"); d.Status != model.StatusRedemption {
		t.Fatalf("after the default zone's Tick: status %v, want redemption", d.Status)
	}

	if n := NewZoneLifecycle(s, slow).Tick(now); n != 1 {
		t.Fatalf("zone's own lifecycle made %d transitions, want 1", n)
	}
	d, _ := s.Get("slow.se")
	if want := today.AddDays(10); d.Status != model.StatusPendingDelete || d.DeleteDay != want {
		t.Fatalf("after the zone's Tick: %v with delete day %v, want pendingDelete on %v", d.Status, d.DeleteDay, want)
	}
}
