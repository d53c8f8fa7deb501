package registry

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"dropzero/internal/model"
	"dropzero/internal/simtime"
	"dropzero/internal/zone"
)

// DropConfig parameterises a zone's daily deletion process; it lives in the
// zone package (each zone carries its own) and is aliased here to keep the
// pre-federation registry API intact, along with the queue and schedule
// types the policies operate on.
type (
	DropConfig = zone.DropConfig
	QueueEntry = zone.QueueEntry
	Scheduled  = zone.Scheduled
)

// DefaultDropConfig returns the configuration used by the experiments.
func DefaultDropConfig() DropConfig { return zone.DefaultDropConfig() }

// DropRunner executes one zone's Drop for a Store: it queues only that
// zone's TLDs and releases them under the zone's policy, so one store can
// drop several zones on independent clocks. NewDropRunner builds the default
// .com/.net zone's runner; NewZoneDropRunner any installed zone's.
type DropRunner struct {
	store  *Store
	cfg    DropConfig
	policy zone.DropPolicy
	scope  map[model.TLD]bool // the zone's TLD membership set
}

// NewDropRunner returns the default zone's runner over store, paced with cfg
// (zero cfg gets defaults).
func NewDropRunner(store *Store, cfg DropConfig) *DropRunner {
	def := zone.Default()
	def.Drop = cfg
	r, err := NewZoneDropRunner(store, def)
	if err != nil {
		panic(err) // every store hosts the default zone, and its policy is paced
	}
	return r
}

// NewZoneDropRunner returns a runner scoped to z's TLDs, releasing under z's
// policy (zero z.Drop gets defaults unless z releases instantly). z must be
// one of the store's installed zones.
func NewZoneDropRunner(store *Store, z zone.Config) (*DropRunner, error) {
	if _, ok := store.ZoneByName(z.Name); !ok {
		return nil, fmt.Errorf("registry: zone %q not installed", z.Name)
	}
	if z.Drop.BaseRatePerSec == 0 && z.Policy != zone.PolicyInstant {
		z.Drop = DefaultDropConfig()
	}
	pol, err := zone.NewPolicy(z)
	if err != nil {
		return nil, err
	}
	return &DropRunner{store: store, cfg: z.Drop, policy: pol, scope: z.TLDSet()}, nil
}

// Config returns the active configuration.
func (r *DropRunner) Config() DropConfig { return r.cfg }

// Policy returns the runner's release policy.
func (r *DropRunner) Policy() zone.DropPolicy { return r.policy }

// inScope reports whether t belongs to this runner's zone.
func (r *DropRunner) inScope(t model.TLD) bool {
	return r.scope[t]
}

// BuildQueue assembles day's deletion queue: every pendingDelete domain of
// the runner's zone scheduled for day, its TLDs combined, ordered by the
// registration's last-updated timestamp with the domain ID as the tie
// breaker. This is the predictable order the paper infers in §4.1 (the
// randomized policy reorders it at schedule time, which is the point of
// that countermeasure).
//
// The queue is read straight out of day's pending-delete bucket and ordered
// on the stored integers — O(k log k), independent of how many million other
// registrations the store holds, by sorting one pointer-free 16-byte key per
// entry (IDs are unique: the order is total); a time.Time is built after.
func (r *DropRunner) BuildQueue(day simtime.Day) []QueueEntry {
	recs := slices.DeleteFunc(r.store.pendingOn(day), func(rec record) bool { return !r.inScope(rec.tld()) })
	if len(recs) == 0 {
		return nil
	}
	keys := make([][2]uint64, len(recs)) // {updated<<32 | id, index}
	for i := range recs {
		keys[i] = [2]uint64{uint64(recs[i].updated)<<32 | uint64(recs[i].id), uint64(i)}
	}
	slices.SortFunc(keys, func(a, b [2]uint64) int { return cmp.Compare(a[0], b[0]) })
	q := make([]QueueEntry, len(recs))
	for i, k := range keys {
		rec := &recs[k[1]]
		q[i] = QueueEntry{Name: rec.name(), TLD: rec.tld(), ID: uint64(rec.id), Updated: simtime.UnpackTime(rec.updated)}
	}
	return q
}

// Schedule plans day's Drop without executing it: the queue handed to the
// zone's release policy, which assigns deletion instants (paced with jitter
// and stalls, one instant for instant release, shuffled for randomized
// order).
func (r *DropRunner) Schedule(day simtime.Day, rng *rand.Rand) []Scheduled {
	return r.ScheduleQueue(day, r.BuildQueue(day), rng)
}

// ScheduleQueue is Schedule over an explicit, already-ordered queue. Crash
// recovery uses it to re-derive a partially executed Drop's original plan:
// the purged prefix is reconstructed from the deletion archive, the
// remaining entries come from BuildQueue on the recovered store, and —
// because every policy's draws depend only on the queue *length* and rng,
// and any policy reordering is a deterministic total order over the entries
// — the schedule (and therefore every remaining deletion instant) comes out
// exactly as the uninterrupted run would have produced it.
func (r *DropRunner) ScheduleQueue(day simtime.Day, queue []QueueEntry, rng *rand.Rand) []Scheduled {
	return r.policy.Schedule(day, queue, rng)
}

// Apply purges one scheduled deletion, making the name available.
func (r *DropRunner) Apply(s Scheduled) (model.DeletionEvent, error) {
	ev, err := r.store.purge(s.Name, s.Time, s.Rank)
	if err != nil {
		return ev, fmt.Errorf("drop rank %d: %w", s.Rank, err)
	}
	return ev, nil
}

// Run executes day's Drop, purging every queued domain and returning the
// ground-truth deletion events in order. rng drives the pacing noise; pass a
// seeded source for reproducible runs.
//
// Run assigns second-precision deletion instants: several domains share each
// second (the registry processes tens of deletions per second), which is why
// the paper's envelope model sees multiple ranks per timestamp. Callers that
// need to interleave other work with the deletions (for example racing EPP
// agents against the Drop) should use Schedule and Apply directly.
func (r *DropRunner) Run(day simtime.Day, rng *rand.Rand) ([]model.DeletionEvent, error) {
	sched := r.Schedule(day, rng)
	events := make([]model.DeletionEvent, 0, len(sched))
	for _, s := range sched {
		ev, err := r.Apply(s)
		if err != nil {
			return events, err
		}
		events = append(events, ev)
	}
	return events, nil
}

// EndTime returns the instant of the last deletion in events, or the zero
// time for an empty Drop.
func EndTime(events []model.DeletionEvent) time.Time {
	if len(events) == 0 {
		return time.Time{}
	}
	return events[len(events)-1].Time()
}
