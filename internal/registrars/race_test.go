package registrars

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dropzero/internal/epp"
	"dropzero/internal/model"
	"dropzero/internal/registry"
	"dropzero/internal/simtime"
)

// raceWorld stands up a registry + EPP server with n pendingDelete domains
// on one day, and returns everything a race needs.
type raceWorld struct {
	clock  *simtime.SimClock
	store  *registry.Store
	dir    *Directory
	runner *registry.DropRunner
	day    simtime.Day
	names  []string
	addr   string
}

func newRaceWorld(t *testing.T, n int, burst, rate float64) *raceWorld {
	t.Helper()
	day := simtime.Day{Year: 2018, Month: time.January, Dom: 22}
	clock := simtime.NewSimClock(day.At(9, 0, 0))
	rng := rand.New(rand.NewSource(31))
	dir := BuildDirectory(rng)
	store := registry.NewStore(clock)
	for _, r := range dir.Registrars() {
		store.AddRegistrar(r)
	}
	sponsors := dir.Accreditations(SvcOther)
	lc := registry.DefaultLifecycleConfig()
	updatedDay := day.AddDays(-35)
	var names []string
	for i := 0; i < n; i++ {
		sponsor := sponsors[rng.Intn(len(sponsors))]
		updated := lc.BatchInstant(updatedDay, sponsor)
		name := fmt.Sprintf("race%03d.com", i)
		if _, err := store.SeedAt(name, sponsor, updated.AddDate(-2, 0, 0), updated,
			updated.AddDate(0, 0, -35), model.StatusPendingDelete, day); err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
	}
	srv := epp.NewServer(store, clock, epp.ServerConfig{
		Credentials: dir.Credentials(),
		CreateBurst: burst,
		CreateRate:  rate,
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return &raceWorld{
		clock: clock, store: store, dir: dir,
		runner: registry.NewDropRunner(store, registry.DropConfig{
			StartHour: 19, BaseRatePerSec: 4, RateJitter: 0.2,
		}),
		day: day, names: names, addr: addr.String(),
	}
}

func (w *raceWorld) catcher(t *testing.T, service string, accredCount int) *Catcher {
	t.Helper()
	ids := w.dir.Accreditations(service)
	if accredCount > len(ids) {
		t.Fatalf("service %s has only %d accreditations", service, len(ids))
	}
	c, err := NewCatcher(service, w.addr, ids[:accredCount], w.dir.Credential)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestRaceFCFSNoDoubleWins(t *testing.T) {
	w := newRaceWorld(t, 40, 50, 50)
	a := w.catcher(t, SvcDropCatch, 4)
	b := w.catcher(t, SvcSnapNames, 4)
	a.Backorder(w.names...)
	b.Backorder(w.names...)

	res, err := RunRace(w.clock, w.runner, w.day, rand.New(rand.NewSource(1)), []*Catcher{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) != 40 {
		t.Fatalf("deleted %d, want 40", len(res.Events))
	}
	for name := range a.Won {
		if _, also := b.Won[name]; also {
			t.Fatalf("%s won by both agents", name)
		}
	}
	total := len(a.Won) + len(b.Won)
	if total != 40 {
		t.Fatalf("total wins = %d (a=%d b=%d), want 40", total, len(a.Won), len(b.Won))
	}
	// Both well-provisioned agents should win a meaningful share.
	if len(a.Won) == 0 || len(b.Won) == 0 {
		t.Fatalf("one agent shut out: a=%d b=%d", len(a.Won), len(b.Won))
	}
}

func TestRaceMoreAccreditationsWinMore(t *testing.T) {
	// Tight per-accreditation budgets: capacity comes from accreditation
	// count, the paper's economic argument for holding hundreds of them.
	w := newRaceWorld(t, 60, 2, 0.2)
	big := w.catcher(t, SvcDropCatch, 12)
	small := w.catcher(t, SvcXZ, 2)
	big.Backorder(w.names...)
	small.Backorder(w.names...)

	if _, err := RunRace(w.clock, w.runner, w.day, rand.New(rand.NewSource(2)), []*Catcher{big, small}); err != nil {
		t.Fatal(err)
	}
	if len(big.Won) <= 2*len(small.Won) {
		t.Fatalf("accreditation advantage missing: big=%d small=%d (big rate-limited %d, small %d)",
			len(big.Won), len(small.Won), big.RateLimited, small.RateLimited)
	}
	if small.RateLimited == 0 {
		t.Fatal("small agent never hit its budget; the race was not budget-bound")
	}
}

func TestRaceSpeculativeCreatesBeforeDeletion(t *testing.T) {
	w := newRaceWorld(t, 10, 100, 100)
	c := w.catcher(t, SvcDropCatch, 2)
	c.Backorder(w.names...)

	// Ticks before the Drop: every create fails with objectExists, but the
	// prior registration is pendingDelete, so nothing may be marked lost.
	for i := 0; i < 3; i++ {
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if len(c.Lost) != 0 {
		t.Fatalf("speculative creates marked %d names lost", len(c.Lost))
	}
	if c.Pending() != 10 {
		t.Fatalf("pending = %d, want 10", c.Pending())
	}
	if c.Attempts == 0 {
		t.Fatal("no speculative attempts recorded")
	}

	// Run the race; everything should be caught eventually.
	if _, err := RunRace(w.clock, w.runner, w.day, rand.New(rand.NewSource(3)), []*Catcher{c}); err != nil {
		t.Fatal(err)
	}
	if len(c.Won) != 10 {
		t.Fatalf("won %d of 10 (pending %d, lost %d)", len(c.Won), c.Pending(), len(c.Lost))
	}
}

func TestRaceLostToOutsideRegistrant(t *testing.T) {
	w := newRaceWorld(t, 5, 100, 100)
	c := w.catcher(t, SvcDropCatch, 1)
	c.Backorder(w.names...)

	// Run the Drop without the agent, then hand every name to an outside
	// registrant before the agent gets a turn.
	events, err := w.runner.Run(w.day, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	w.clock.Set(events[len(events)-1].Time().Add(time.Second))
	outsider := w.dir.Accreditations(SvcGoDaddy)[0]
	for _, name := range w.names {
		if _, err := w.store.Create(name, outsider, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Tick(); err != nil {
		t.Fatal(err)
	}
	if len(c.Lost) != 1 {
		// One tick, one session → exactly one attempt resolved as lost.
		t.Fatalf("lost = %d after one tick, want 1", len(c.Lost))
	}
	for i := 0; i < 10; i++ {
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if len(c.Lost) != 5 || c.Pending() != 0 || len(c.Won) != 0 {
		t.Fatalf("lost=%d pending=%d won=%d, want 5/0/0", len(c.Lost), c.Pending(), len(c.Won))
	}
}

func TestCatcherValidation(t *testing.T) {
	if _, err := NewCatcher("x", "127.0.0.1:1", nil, func(int) string { return "" }); err == nil {
		t.Fatal("catcher with no accreditations accepted")
	}
}

func TestRaceEmptyDay(t *testing.T) {
	w := newRaceWorld(t, 0, 10, 10)
	res, err := RunRace(w.clock, w.runner, w.day, rand.New(rand.NewSource(5)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) != 0 || res.Ticks != 0 {
		t.Fatalf("empty race: %+v", res)
	}
}
