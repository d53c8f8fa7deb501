// Package measure implements the paper's data-collection methodology (§3):
// download the registry's pending-delete list every day; three days before a
// domain's scheduled deletion, collect the expiring registration's metadata
// over RDAP (falling back to WHOIS on server errors); at least eight weeks
// after the deletion date, repeat the lookup to detect a re-registration;
// finally, query the maliciousness oracle for every re-registered name.
package measure

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"

	"dropzero/internal/dropscope"
	"dropzero/internal/model"
	"dropzero/internal/par"
	"dropzero/internal/rdap"
	"dropzero/internal/safebrowsing"
	"dropzero/internal/simtime"
	"dropzero/internal/whois"
)

// LookaheadLookupDays is how many days before the scheduled deletion the
// prior-registration metadata is collected.
const LookaheadLookupDays = 3

// Pipeline drives the measurement. It is stateful across days: create one
// per study.
type Pipeline struct {
	Lists *dropscope.Client
	RDAP  *rdap.Client
	// WHOIS is the fallback for RDAP server errors; nil disables fallback,
	// making those domains drop out of the dataset (with a counted error).
	WHOIS *whois.Client
	// Oracle is queried for re-registered domains at Finalize; nil leaves
	// all labels false.
	Oracle *safebrowsing.Client

	// TLDFilter restricts lookups to one zone; the paper restricted lookups
	// to .com. Empty means no filter.
	TLDFilter model.TLD

	// Parallelism bounds the worker pool that fans per-domain lookups out in
	// CollectDaily and Finalize; 0 defaults to GOMAXPROCS, 1 is fully
	// sequential. Results are merged in canonical (name) order, so datasets
	// and Stats are identical at every setting.
	Parallelism int

	// TrackDeltas makes each CollectDaily record its state changes for the
	// durability journal; the driver drains them with TakeDelta. Off by
	// default so non-journaled studies pay nothing.
	TrackDeltas bool

	pending map[string]*pendingDomain
	stats   Stats
	delta   *CollectDelta
}

type pendingDomain struct {
	name      string
	tld       model.TLD
	deleteDay simtime.Day
	prior     *model.PriorRegistration
}

// Stats counts pipeline activity, including the RDAP failures that exercised
// the WHOIS fallback.
type Stats struct {
	ListEntries     int
	Lookups         int
	RDAPErrors      int
	WHOISFallbacks  int
	FallbackFailed  int
	Reregistered    int
	NotReregistered int
	OracleLookups   int
}

// add accumulates the per-lookup counter deltas produced by the workers.
// Merging happens on the caller's goroutine, in canonical lookup order, so
// the totals match a sequential run exactly.
func (s *Stats) add(d Stats) {
	s.ListEntries += d.ListEntries
	s.Lookups += d.Lookups
	s.RDAPErrors += d.RDAPErrors
	s.WHOISFallbacks += d.WHOISFallbacks
	s.FallbackFailed += d.FallbackFailed
	s.Reregistered += d.Reregistered
	s.NotReregistered += d.NotReregistered
	s.OracleLookups += d.OracleLookups
}

// Stats returns a copy of the activity counters.
func (p *Pipeline) Stats() Stats { return p.stats }

// workers resolves the Parallelism knob.
func (p *Pipeline) workers() int { return par.Workers(p.Parallelism) }

// byName orders pending domains canonically; the fan-out/merge order of both
// lookup passes, which makes parallel runs bit-for-bit deterministic.
func byName(a, b *pendingDomain) int { return strings.Compare(a.name, b.name) }

// CollectDaily performs one day's collection: download the day's pending
// delete list and fetch prior-registration metadata for domains whose
// deletion is (at most) three days away. Call once per simulated day, in
// order.
func (p *Pipeline) CollectDaily(ctx context.Context, today simtime.Day) error {
	if p.pending == nil {
		p.pending = make(map[string]*pendingDomain)
	}
	if p.TrackDeltas {
		p.delta = &CollectDelta{Day: today}
	}
	statsBefore := p.stats
	entries, err := p.Lists.Fetch(ctx, today)
	if err != nil {
		return fmt.Errorf("measure: fetch pending list for %v: %w", today, err)
	}
	for _, e := range entries {
		tld, ok := model.TLDOf(e.Name)
		if !ok {
			continue
		}
		if p.TLDFilter != "" && tld != p.TLDFilter {
			continue
		}
		if _, seen := p.pending[e.Name]; seen {
			continue
		}
		p.pending[e.Name] = &pendingDomain{name: e.Name, tld: tld, deleteDay: e.DeleteDay}
		p.stats.ListEntries++
		if p.delta != nil {
			p.delta.Added = append(p.delta.Added, PendingEntry{Name: e.Name, TLD: tld, DeleteDay: e.DeleteDay})
		}
	}
	// Fetch metadata for domains deleting within the lookup window that we
	// have not resolved yet. The ≤ comparison (rather than ==) bootstraps
	// the first days of the study, when domains closer than three days out
	// appear on the very first list. Lookups fan out over the worker pool;
	// failed lookups leave prior nil and are retried on later days while the
	// window lasts.
	cutoff := today.AddDays(LookaheadLookupDays)
	due := make([]*pendingDomain, 0, len(p.pending))
	for _, pd := range p.pending {
		if pd.prior != nil || cutoff.Before(pd.deleteDay) {
			continue
		}
		due = append(due, pd)
	}
	slices.SortFunc(due, byName)
	type priorResult struct {
		prior *model.PriorRegistration
		delta Stats
	}
	results := par.Do(p.workers(), len(due), func(i int) priorResult {
		var r priorResult
		r.prior, r.delta = p.lookupPrior(ctx, due[i].name)
		return r
	})
	for i, r := range results {
		p.stats.add(r.delta)
		due[i].prior = r.prior
		if p.delta != nil && r.prior != nil {
			c := *r.prior
			p.delta.Resolved = append(p.delta.Resolved,
				PendingEntry{Name: due[i].name, TLD: due[i].tld, DeleteDay: due[i].deleteDay, Prior: &c})
		}
	}
	if p.delta != nil {
		p.delta.Stats = p.stats.sub(statsBefore)
	}
	return nil
}

// lookupPrior fetches registration metadata over RDAP, falling back to WHOIS
// on 5xx. It runs on pool workers: it must not touch Pipeline state, so it
// returns its counter increments as a Stats delta (prior is nil on failure).
func (p *Pipeline) lookupPrior(ctx context.Context, name string) (*model.PriorRegistration, Stats) {
	delta := Stats{Lookups: 1}
	reg, err := p.RDAP.Registration(ctx, name)
	switch {
	case err == nil:
		return &reg, delta
	case errors.Is(err, rdap.ErrNotFound), errors.Is(err, rdap.ErrMalformed):
		return nil, delta
	}
	delta.RDAPErrors++
	if p.WHOIS == nil {
		delta.FallbackFailed++
		return nil, delta
	}
	delta.WHOISFallbacks++
	d, werr := p.WHOIS.LookupContext(ctx, name)
	if werr != nil {
		delta.FallbackFailed++
		return nil, delta
	}
	reg = d.Registration()
	return &reg, delta
}

// Finalize performs the T+8-weeks re-lookups and assembles the dataset. Call
// once, after advancing the clock at least eight weeks past the last
// deletion day. Domains whose prior metadata could not be collected, or
// whose second lookup fails — on RDAP and on WHOIS, counted as FallbackFailed,
// or with a 200 no registration can be read from, uncounted as in lookupPrior —
// are omitted, like the paper's error cases; a done ctx is an error, not an
// empty dataset. Re-lookups (and the oracle
// queries for re-registered names) fan out over the worker pool, each worker
// writing its row straight into the dataset slice; the dataset is returned
// sorted by name regardless of Parallelism.
func (p *Pipeline) Finalize(ctx context.Context) ([]model.Observation, error) {
	collected := make([]*pendingDomain, 0, len(p.pending))
	for _, pd := range p.pending {
		if pd.prior != nil {
			collected = append(collected, pd)
		}
	}
	slices.SortFunc(collected, byName)
	rows := make([]model.Observation, len(collected))
	type finalResult struct {
		// keep is false for restored domains (same object ID: the deletion
		// never happened), which are not part of the study population, and
		// for names whose second lookup failed: what became of them is not
		// known, and a row would say "not re-registered".
		keep  bool
		delta Stats
		err   error
	}
	results := par.Do(p.workers(), len(collected), func(i int) finalResult {
		pd := collected[i]
		var (
			r         finalResult
			rereg     *model.Rereg
			malicious bool
		)
		cur, err := p.lookupCurrent(ctx, pd.name)
		switch {
		case errors.Is(err, rdap.ErrMalformed):
			return r
		case err != nil:
			r.delta.FallbackFailed++
			return r
		case cur == nil:
			r.delta.NotReregistered++
		case cur.ID != pd.prior.ID:
			rereg = &model.Rereg{Time: cur.Created, RegistrarID: cur.RegistrarID}
			r.delta.Reregistered++
		default:
			return r
		}
		if rereg != nil && p.Oracle != nil {
			r.delta.OracleLookups++
			if malicious, err = p.Oracle.Lookup(pd.name); err != nil {
				r.err = fmt.Errorf("measure: oracle lookup %s: %w", pd.name, err)
				return r
			}
		}
		if rows[i], err = model.NewObservation(pd.name, pd.deleteDay, *pd.prior, rereg, malicious); err != nil {
			r.err = fmt.Errorf("measure: %w", err)
			return r
		}
		r.keep = true
		return r
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := rows[:0]
	for i, r := range results {
		p.stats.add(r.delta)
		if r.err != nil {
			return nil, r.err
		}
		if r.keep {
			out = append(out, rows[i])
		}
	}
	return out, nil
}

// lookupCurrent fetches the current registration, nil when the name is
// unregistered. A 200 no registration can be read from is an error WHOIS is
// not asked about.
func (p *Pipeline) lookupCurrent(ctx context.Context, name string) (*model.PriorRegistration, error) {
	reg, err := p.RDAP.Registration(ctx, name)
	switch {
	case err == nil:
		return &reg, nil
	case errors.Is(err, rdap.ErrNotFound):
		return nil, nil
	case errors.Is(err, rdap.ErrMalformed):
		return nil, err
	}
	if p.WHOIS != nil {
		d, werr := p.WHOIS.LookupContext(ctx, name)
		if werr == nil {
			reg = d.Registration()
			return &reg, nil
		}
		if errors.Is(werr, whois.ErrNoMatch) {
			return nil, nil
		}
	}
	return nil, err
}
