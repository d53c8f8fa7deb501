// Package measure implements the paper's data-collection methodology (§3):
// download the registry's pending-delete list every day; three days before a
// domain's scheduled deletion, collect the expiring registration's metadata
// over RDAP (falling back to WHOIS on server errors); at least eight weeks
// after the deletion date, repeat the lookup to detect a re-registration;
// finally, query the maliciousness oracle for every re-registered name.
// The tracked names are one name-ordered slice, the order both lookup passes
// run in; each day's (day, name)-ordered list is merge-joined into it.
package measure

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
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

	// pending is every tracked domain, ordered by name, each name once.
	pending []PendingEntry
	stats   Stats
	delta   *CollectDelta

	added []PendingEntry // scratch: the names a collection adds
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

// Counters lists the counters in one fixed order, the order the study's
// checkpoint blobs write them in.
func (s *Stats) Counters() [8]*int {
	return [...]*int{&s.ListEntries, &s.Lookups, &s.RDAPErrors, &s.WHOISFallbacks,
		&s.FallbackFailed, &s.Reregistered, &s.NotReregistered, &s.OracleLookups}
}

// add accumulates the per-lookup counter deltas produced by the workers.
// Merging happens on the caller's goroutine, in canonical lookup order, so
// the totals match a sequential run exactly.
func (s *Stats) add(d Stats) {
	to := s.Counters()
	for i, f := range d.Counters() {
		*to[i] += *f
	}
}

// Stats returns a copy of the activity counters.
func (p *Pipeline) Stats() Stats { return p.stats }

// workers resolves the Parallelism knob.
func (p *Pipeline) workers() int { return par.Workers(p.Parallelism) }

// CollectDaily performs one day's collection: download the day's pending
// delete list and fetch prior-registration metadata for domains whose
// deletion is (at most) three days away. Call once per simulated day, in
// order. A list out of (deletion day, name) order is refused.
func (p *Pipeline) CollectDaily(ctx context.Context, today simtime.Day) error {
	if p.TrackDeltas {
		p.delta = &CollectDelta{Day: today}
	}
	statsBefore := p.stats
	entries, err := p.Lists.Fetch(ctx, today)
	if err != nil {
		return fmt.Errorf("measure: fetch pending list for %v: %w", today, err)
	}
	if err := p.track(entries); err != nil {
		return fmt.Errorf("measure: pending list for %v: %w", today, err)
	}
	// Fetch metadata for domains deleting within the lookup window that we
	// have not resolved yet. The ≤ comparison (rather than ==) bootstraps
	// the first days of the study, when domains closer than three days out
	// appear on the very first list. Lookups fan out over the worker pool in
	// name order; failed lookups leave prior nil and are retried on later
	// days while the window lasts.
	cutoff := uint16(min(max(today.AddDays(LookaheadLookupDays).Number(), 0), math.MaxUint16)) // as a stored day
	var due []int
	for i := range p.pending {
		if pd := &p.pending[i]; pd.Prior == nil && pd.deleteDay <= cutoff {
			due = append(due, i)
		}
	}
	type priorResult struct {
		prior *model.PriorRegistration
		delta Stats
	}
	results := par.Do(p.workers(), len(due), func(i int) priorResult {
		var r priorResult
		r.prior, r.delta = p.lookupPrior(ctx, p.pending[due[i]].Name)
		return r
	})
	for i, r := range results {
		pd := &p.pending[due[i]]
		p.stats.add(r.delta)
		pd.Prior = r.prior
		if p.delta != nil && r.prior != nil {
			e, c := *pd, *r.prior
			e.Prior = &c
			p.delta.Resolved = append(p.delta.Resolved, e)
		}
	}
	if p.delta != nil {
		p.delta.Stats = p.stats.sub(statsBefore)
	}
	return nil
}

// track starts tracking the list's names that pass the TLD filter and are
// not tracked yet (a name listed on two days keeps the earlier): the list's
// day runs are merged by name and joined to the tracked set in one pass.
func (p *Pipeline) track(entries []dropscope.Entry) error {
	var buf [dropscope.LookaheadDays][]dropscope.Entry
	runs, start := buf[:0], 0
	for i, e := range entries {
		if i > 0 && cmp.Or(cmp.Compare(e.PackedDeleteDay(), entries[i-1].PackedDeleteDay()), strings.Compare(e.Name, entries[i-1].Name)) < 0 {
			return fmt.Errorf("%s (%v) listed after %s (%v)", e.Name, e.DeleteDay(), entries[i-1].Name, entries[i-1].DeleteDay())
		}
		if i+1 == len(entries) || entries[i+1].PackedDeleteDay() != e.PackedDeleteDay() {
			runs, start = append(runs, entries[start:i+1]), i+1
		}
	}
	added, j := p.added[:0], 0
	for {
		r := -1 // the run whose head comes first; the earliest day on a tie
		for k := range runs {
			if len(runs[k]) > 0 && (r < 0 || runs[k][0].Name < runs[r][0].Name) {
				r = k
			}
		}
		if r < 0 {
			break
		}
		e := runs[r][0]
		runs[r] = runs[r][1:]
		tld, ok := model.TLDOf(e.Name)
		if !ok || (p.TLDFilter != "" && tld != p.TLDFilter) {
			continue
		}
		if n := len(added); (n > 0 && added[n-1].Name == e.Name) || p.tracked(&j, e.Name) {
			continue // listed on an earlier day too, or tracked already
		}
		added = append(added, PendingEntry{Name: e.Name, deleteDay: e.PackedDeleteDay()})
	}
	if p.delta != nil {
		p.delta.Added = append(p.delta.Added, added...)
	}
	p.stats.ListEntries += len(added)
	p.insert(added)
	return nil
}

// tracked reports whether name is tracked, advancing *j, a cursor into
// pending, past every name before it: ascending names join in one pass.
func (p *Pipeline) tracked(j *int, name string) bool {
	for *j < len(p.pending) && p.pending[*j].Name < name {
		*j++
	}
	return *j < len(p.pending) && p.pending[*j].Name == name
}

// insert merges added, name-ordered and none of it tracked yet, into
// pending, back to front and in place, and keeps added's array as scratch.
func (p *Pipeline) insert(added []PendingEntry) {
	i, j := len(p.pending)-1, len(added)-1
	p.pending = slices.Grow(p.pending, len(added))[:len(p.pending)+len(added)]
	for k := len(p.pending) - 1; j >= 0; k-- {
		if i >= 0 && p.pending[i].Name > added[j].Name {
			p.pending[k] = p.pending[i]
			i--
		} else {
			p.pending[k] = added[j]
			j--
		}
	}
	p.added = added[:0]
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
// queries for re-registered names) fan out over the worker pool in name
// order, each worker writing its row straight into the dataset slice; the
// dataset is sorted by name regardless of Parallelism.
func (p *Pipeline) Finalize(ctx context.Context) ([]model.Observation, error) {
	var collected []int
	for i := range p.pending {
		if p.pending[i].Prior != nil {
			collected = append(collected, i)
		}
	}
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
		pd := &p.pending[collected[i]]
		var (
			r         finalResult
			rereg     *model.Rereg
			malicious bool
		)
		cur, err := p.lookupCurrent(ctx, pd.Name)
		switch {
		case errors.Is(err, rdap.ErrMalformed):
			return r
		case err != nil:
			r.delta.FallbackFailed++
			return r
		case cur == nil:
			r.delta.NotReregistered++
		case cur.ID != pd.Prior.ID:
			rereg = &model.Rereg{Time: cur.Created, RegistrarID: cur.RegistrarID}
			r.delta.Reregistered++
		default:
			return r
		}
		if rereg != nil && p.Oracle != nil {
			r.delta.OracleLookups++
			if malicious, err = p.Oracle.Lookup(pd.Name); err != nil {
				r.err = fmt.Errorf("measure: oracle lookup %s: %w", pd.Name, err)
				return r
			}
		}
		if rows[i], err = model.NewObservationPacked(pd.Name, pd.deleteDay, *pd.Prior, rereg, malicious); err != nil {
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
