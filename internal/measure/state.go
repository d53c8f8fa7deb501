package measure

import (
	"fmt"
	"slices"
	"strings"

	"dropzero/internal/model"
	"dropzero/internal/simtime"
)

// This file makes the pipeline's accumulated state exportable, for the
// simulator's crash-recovery journal. The pipeline is the one component of
// a study whose state cannot be recomputed after a crash: its lookups ran
// against the registry as it was days ago, before subsequent Drops purged
// the very registrations it recorded. So the driver checkpoints the
// pipeline alongside the registry — full state into snapshots, per-day
// deltas into the write-ahead log — and recovery reloads it instead of
// re-running lookups against a store that has since moved on.

// PendingEntry is one tracked domain, as the pipeline holds and exports it.
// Prior is nil while the metadata lookup has not succeeded yet. A pipeline
// tracks every listed name, so the entry is 32 bytes: the delete day is a
// stored day (simtime.Day.Pack), set by NewPendingEntry and read through
// DeleteDay.
type PendingEntry struct {
	Name      string
	Prior     *model.PriorRegistration
	deleteDay uint16
}

// NewPendingEntry builds an entry. A delete day a stored day cannot hold —
// outside 1970-01-02 … 2149-06-06 or not a calendar date — is an error.
func NewPendingEntry(name string, deleteDay simtime.Day, prior *model.PriorRegistration) (PendingEntry, error) {
	day, ok := deleteDay.Pack()
	if !ok {
		return PendingEntry{}, fmt.Errorf("measure: %s: delete day %v not representable", name, deleteDay)
	}
	return PendingEntry{Name: name, Prior: prior, deleteDay: day}, nil
}

// DeleteDay is the scheduled deletion day the list announced.
func (e *PendingEntry) DeleteDay() simtime.Day { return simtime.UnpackDay(e.deleteDay) }

// CollectDelta is the state change one CollectDaily call produced: the
// domains it started tracking and the prior-registration lookups it
// resolved. Applying the delta to the pipeline reproduces the call's effect
// without touching the network — which also means without re-querying a
// registry that no longer holds those registrations.
type CollectDelta struct {
	Day      simtime.Day
	Added    []PendingEntry // Prior nil, except in a State export
	Resolved []PendingEntry // Prior always non-nil
	Stats    Stats
}

// sub returns the counter increments between two readings.
func (s Stats) sub(before Stats) Stats {
	to := s.Counters()
	for i, f := range before.Counters() {
		*to[i] -= *f
	}
	return s
}

// State exports a deep copy of the pipeline's tracked domains and counters
// as the delta that, applied to a fresh pipeline, recreates it: every
// tracked domain in Added, in name order, with its prior when resolved.
// Equal pipelines export equal states.
func (p *Pipeline) State() CollectDelta {
	st := CollectDelta{Stats: p.stats, Added: slices.Clone(p.pending)}
	ownPriors(st.Added)
	return st
}

// ownPriors gives every entry of es its own copy of its prior.
func ownPriors(es []PendingEntry) {
	for i := range es {
		if e := &es[i]; e.Prior != nil {
			c := *e.Prior
			e.Prior = &c
		}
	}
}

// TakeDelta returns the delta accumulated since the last call (or since the
// pipeline was created) and resets it. Only meaningful with TrackDeltas
// set; returns nil otherwise.
func (p *Pipeline) TakeDelta() *CollectDelta {
	d := p.delta
	p.delta = nil
	return d
}

// ApplyDelta replays a recorded CollectDaily outcome into the pipeline; a
// State export applied to a fresh pipeline restores the exported state. The
// replay is exact: the tracked set, resolved priors and counters end up as
// the original left them. Added may come in any order (journals written
// before the pipeline kept its names ordered hold list order): only a copy
// of it is sorted, then merged into the tracked set.
func (p *Pipeline) ApplyDelta(d *CollectDelta) error {
	added := append(p.added[:0], d.Added...)
	ownPriors(added)
	slices.SortFunc(added, byName)
	for i, j := 0, 0; i < len(added); i++ {
		if (i > 0 && added[i-1].Name == added[i].Name) || p.tracked(&j, added[i].Name) {
			return fmt.Errorf("measure: replay day %v: %s already tracked", d.Day, added[i].Name)
		}
	}
	p.insert(added)
	for _, e := range d.Resolved {
		pd := p.find(e.Name)
		if pd == nil {
			return fmt.Errorf("measure: replay day %v: resolved %s is not tracked", d.Day, e.Name)
		}
		c := *e.Prior
		pd.Prior = &c
	}
	p.stats.add(d.Stats)
	return nil
}

func byName(a, b PendingEntry) int { return strings.Compare(a.Name, b.Name) }

// find returns the tracked domain called name, nil when there is none.
func (p *Pipeline) find(name string) *PendingEntry {
	i, ok := slices.BinarySearchFunc(p.pending, name, func(e PendingEntry, name string) int {
		return strings.Compare(e.Name, name)
	})
	if !ok {
		return nil
	}
	return &p.pending[i]
}
