package registry

import (
	"cmp"
	"math/rand"
	"slices"
	"time"

	"dropzero/internal/model"
	"dropzero/internal/simtime"
	"dropzero/internal/zone"
)

// LifecycleConfig parameterises the post-expiration pipeline. It lives in
// the zone package (each zone carries its own); the alias keeps the
// pre-federation registry API intact.
type LifecycleConfig = zone.LifecycleConfig

// DefaultLifecycleConfig returns the ICANN-policy defaults for .com/.net.
func DefaultLifecycleConfig() LifecycleConfig { return zone.DefaultLifecycleConfig() }

// Lifecycle advances one zone's domains through the expiration pipeline. It
// is driven once per simulated day (before the Drop) by the orchestrator, or
// on a timer when running against the real clock. NewLifecycle builds the
// default .com/.net zone's; NewZoneLifecycle any installed zone's.
type Lifecycle struct {
	store *Store
	cfg   LifecycleConfig
	scope map[model.TLD]bool // the zone's TLD membership set
}

// NewLifecycle returns a Lifecycle over store for the default zone. It
// installs the store's base due-day policy derived from cfg, so the store's
// per-state indexes bucket every default-zone domain on the exact day its
// next transition becomes due (other zones' TLDs keep their own lifecycle
// parameters). One store should have one active Lifecycle per zone;
// cfg.GraceDays must not be mutated afterwards except through
// SpreadGraceDays, which re-derives the policy (a bucket later than the true
// due day would delay transitions).
func NewLifecycle(store *Store, cfg LifecycleConfig) *Lifecycle {
	if cfg.RedemptionDays == 0 && cfg.PendingDeleteDays == 0 && cfg.DefaultGraceDays == 0 {
		cfg = DefaultLifecycleConfig()
	}
	store.setDuePolicy(duePolicy{
		redemptionDays:   cfg.RedemptionDays,
		graceDays:        cfg.GraceDays,
		defaultGraceDays: cfg.DefaultGraceDays,
	})
	def := zone.Default()
	return &Lifecycle{store: store, cfg: cfg, scope: def.TLDSet()}
}

// NewZoneLifecycle returns a Lifecycle driving z's TLDs under z's own
// lifecycle config. z must already be installed in the store (AddZone); the
// per-TLD due-day parameters were installed then. The default zone's
// lifecycle comes from NewLifecycle, which also installs its due policy.
func NewZoneLifecycle(store *Store, z zone.Config) *Lifecycle {
	return &Lifecycle{store: store, cfg: z.Lifecycle, scope: z.TLDSet()}
}

// Config returns the active configuration.
func (l *Lifecycle) Config() LifecycleConfig { return l.cfg }

// inScope reports whether t belongs to this lifecycle's zone.
func (l *Lifecycle) inScope(t model.TLD) bool {
	return l.scope[t]
}

// change is one planned lifecycle transition: everything the apply phase
// needs, derived once during the sweep — no deferred closure re-deriving
// state per candidate, and no Domain copy per examined domain.
type change struct {
	id      uint32
	name    string
	to      model.Status
	updated time.Time   // zero = keep the current last-updated timestamp
	day     simtime.Day // DeleteDay when to == StatusPendingDelete
}

// Tick processes all state transitions due at now for this lifecycle's zone.
// It returns the number of transitions performed. Transitions are applied in
// a deterministic order (sorted by domain ID) so equal inputs give equal
// outputs.
//
// Tick walks the autoRenew and redemption due-day buckets at or before
// now's day — work proportional to the domains actually due, plus same-day
// candidates whose exact instant has not struck yet — and, for active
// domains, the table chunks whose expiry bound is not after now.
func (l *Lifecycle) Tick(now time.Time) int {
	now = simtime.Trunc(now)
	day := simtime.DayOf(now)

	nowSec := now.Unix()
	var changes []change
	l.store.eachExpired(nowSec, func(r *record) {
		if l.inScope(r.tld()) {
			// Registry auto-renews at expiration; the registrar's grace
			// clock starts at the old expiry.
			changes = append(changes, change{id: r.id, name: r.name(), to: model.StatusAutoRenew, updated: simtime.UnpackTime(r.expiry)})
		}
	})
	// The calendar's AddDate(0, 0, n) is +n·daySecs in UTC.
	l.store.eachDueThrough(model.StatusAutoRenew, day, func(r *record) {
		if !l.inScope(r.tld()) {
			return
		}
		registrar := int(r.registrar)
		if simtime.UnixOf(r.expiry)+daySecs*int64(l.cfg.GraceDaysFor(registrar)) <= nowSec {
			// Registrar deletes the domain: the batch instant is the "last
			// updated" timestamp that will drive the deletion order.
			changes = append(changes, change{id: r.id, name: r.name(), to: model.StatusRedemption, updated: l.cfg.BatchInstant(day, registrar)})
		}
	})
	l.store.eachDueThrough(model.StatusRedemption, day, func(r *record) {
		if l.inScope(r.tld()) && simtime.UnixOf(r.updated)+daySecs*int64(l.cfg.RedemptionDays) <= nowSec {
			changes = append(changes, change{id: r.id, name: r.name(), to: model.StatusPendingDelete, day: day.AddDays(l.cfg.PendingDeleteDays)})
		}
	})

	slices.SortFunc(changes, func(a, b change) int { return cmp.Compare(a.id, b.id) })
	n := 0
	for _, c := range changes {
		var err error
		if c.to == model.StatusPendingDelete {
			err = l.store.MarkPendingDelete(c.name, time.Time{}, c.day)
		} else {
			err = l.store.setState(c.name, c.to, c.updated, simtime.Day{})
		}
		if err == nil {
			n++
		}
	}
	return n
}

// SpreadGraceDays populates GraceDays with registrar-specific values in
// [minDays, maxDays], drawn deterministically from rng, for every registrar
// currently known to the store. It re-derives the store's due-day policy so
// already-indexed autoRenew domains move to their new grace-end buckets —
// this is the one supported way to change GraceDays after NewLifecycle.
func SpreadGraceDays(cfg *LifecycleConfig, store *Store, minDays, maxDays int, rng *rand.Rand) {
	if cfg.GraceDays == nil {
		cfg.GraceDays = make(map[int]int)
	}
	for _, r := range store.Registrars() {
		cfg.GraceDays[r.IANAID] = minDays + rng.Intn(maxDays-minDays+1)
	}
	store.setDuePolicy(duePolicy{
		redemptionDays:   cfg.RedemptionDays,
		graceDays:        cfg.GraceDays,
		defaultGraceDays: cfg.DefaultGraceDays,
	})
}
