package registry

import (
	"cmp"
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

// NewLifecycle returns a Lifecycle over store for the default zone. A zero
// cfg means DefaultLifecycleConfig.
func NewLifecycle(store *Store, cfg LifecycleConfig) *Lifecycle {
	if cfg.RedemptionDays == 0 && cfg.PendingDeleteDays == 0 && cfg.DefaultGraceDays == 0 {
		cfg = DefaultLifecycleConfig()
	}
	def := zone.Default()
	return &Lifecycle{store: store, cfg: cfg, scope: def.TLDSet()}
}

// NewZoneLifecycle returns a Lifecycle driving z's TLDs under z's own
// lifecycle config. z must already be installed in the store (AddZone).
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
// state per candidate, and no Domain copy per examined domain. Its instant
// and day are held as the store holds them (simtime.PackTime,
// simtime.Day.Pack), so a change is 32 bytes.
type change struct {
	name    string
	id      uint32
	updated uint32 // stored instant; 0 keeps the current last-updated timestamp
	day     uint16 // stored DeleteDay when to == StatusPendingDelete
	to      model.Status
}

// Tick processes all state transitions due at now for this lifecycle's zone.
// It returns the number of transitions performed. Transitions are applied in
// a deterministic order (sorted by domain ID) so equal inputs give equal
// outputs.
//
// A bucket holds the names whose window opened on its day, so a window of g
// days that has closed by now opened on or before today − g. Tick walks the
// autoRenew buckets through today less the shortest grace its config gives
// any registrar, and the redemption buckets through today less the
// redemption length — work proportional to the domains actually due, plus
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
			changes = append(changes, change{id: r.id, name: r.name(), to: model.StatusAutoRenew, updated: r.expiry})
		}
	})
	grace := l.cfg.DefaultGraceDays // the shortest any registrar has
	for _, g := range l.cfg.GraceDays {
		grace = min(grace, g)
	}
	// The calendar's AddDate(0, 0, n) is +n·daySecs in UTC.
	l.store.eachDueThrough(model.StatusAutoRenew, day.AddDays(-grace), func(r *record) {
		if !l.inScope(r.tld()) {
			return
		}
		registrar := int(r.registrar)
		if simtime.UnixOf(r.expiry)+daySecs*int64(l.cfg.GraceDaysFor(registrar)) <= nowSec {
			// Registrar deletes the domain: the batch instant is the "last
			// updated" timestamp that will drive the deletion order. One
			// the store cannot hold would be refused by setState.
			if at, ok := simtime.PackTime(l.cfg.BatchInstant(day, registrar)); ok {
				changes = append(changes, change{id: r.id, name: r.name(), to: model.StatusRedemption, updated: at})
			}
		}
	})
	// A delete day the store cannot hold would be refused by setState.
	if deleteDay, ok := day.AddDays(l.cfg.PendingDeleteDays).Pack(); ok {
		l.store.eachDueThrough(model.StatusRedemption, day.AddDays(-l.cfg.RedemptionDays), func(r *record) {
			if l.inScope(r.tld()) && simtime.UnixOf(r.updated)+daySecs*int64(l.cfg.RedemptionDays) <= nowSec {
				changes = append(changes, change{id: r.id, name: r.name(), to: model.StatusPendingDelete, day: deleteDay})
			}
		})
	}

	slices.SortFunc(changes, func(a, b change) int { return cmp.Compare(a.id, b.id) })
	n := 0
	for _, c := range changes {
		var err error
		if c.to == model.StatusPendingDelete {
			err = l.store.MarkPendingDelete(c.name, time.Time{}, simtime.UnpackDay(c.day))
		} else {
			err = l.store.setState(c.name, c.to, simtime.UnpackTime(c.updated), simtime.Day{})
		}
		if err == nil {
			n++
		}
	}
	return n
}
