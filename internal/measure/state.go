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

// PendingEntry is one tracked domain in exportable form. Prior is nil while
// the metadata lookup has not succeeded yet.
type PendingEntry struct {
	Name      string
	TLD       model.TLD
	DeleteDay simtime.Day
	Prior     *model.PriorRegistration
}

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
	return Stats{
		ListEntries:     s.ListEntries - before.ListEntries,
		Lookups:         s.Lookups - before.Lookups,
		RDAPErrors:      s.RDAPErrors - before.RDAPErrors,
		WHOISFallbacks:  s.WHOISFallbacks - before.WHOISFallbacks,
		FallbackFailed:  s.FallbackFailed - before.FallbackFailed,
		Reregistered:    s.Reregistered - before.Reregistered,
		NotReregistered: s.NotReregistered - before.NotReregistered,
		OracleLookups:   s.OracleLookups - before.OracleLookups,
	}
}

// State exports a deep copy of the pipeline's tracked domains and counters
// as the delta that, applied to a fresh pipeline, recreates it: every
// tracked domain in Added, with its prior when resolved. Entries are sorted
// by name so equal pipelines export equal states.
func (p *Pipeline) State() CollectDelta {
	st := CollectDelta{Stats: p.stats}
	for _, pd := range p.pending {
		e := PendingEntry{Name: pd.name, TLD: pd.tld, DeleteDay: pd.deleteDay}
		if pd.prior != nil {
			c := *pd.prior
			e.Prior = &c
		}
		st.Added = append(st.Added, e)
	}
	slices.SortFunc(st.Added, func(a, b PendingEntry) int { return strings.Compare(a.Name, b.Name) })
	return st
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
// the original left them.
func (p *Pipeline) ApplyDelta(d *CollectDelta) error {
	if p.pending == nil {
		p.pending = make(map[string]*pendingDomain)
	}
	for _, e := range d.Added {
		if _, seen := p.pending[e.Name]; seen {
			return fmt.Errorf("measure: replay day %v: %s already tracked", d.Day, e.Name)
		}
		pd := &pendingDomain{name: e.Name, tld: e.TLD, deleteDay: e.DeleteDay}
		if e.Prior != nil {
			c := *e.Prior
			pd.prior = &c
		}
		p.pending[e.Name] = pd
	}
	for _, e := range d.Resolved {
		pd, ok := p.pending[e.Name]
		if !ok {
			return fmt.Errorf("measure: replay day %v: resolved %s is not tracked", d.Day, e.Name)
		}
		c := *e.Prior
		pd.prior = &c
	}
	p.stats.add(d.Stats)
	return nil
}
