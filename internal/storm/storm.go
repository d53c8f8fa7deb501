// Package storm drives drop-catch create storms against a live EPP surface:
// many sessions, each following a pre-drop retry schedule, racing to
// re-register names as a Drop releases them. It is the load side of the
// paper's measurement — the registry sees exactly what a registry operator
// sees during the daily deletion window, and the report answers the paper's
// questions: who wins, how fast after deletion, and what the tail latency of
// a create looks like under contention.
//
// The engine runs on one of two clocks. On the wall clock it is open-loop:
// every scheduled attempt fires at its appointed instant whether or not
// earlier attempts have returned, so server backlog shows up as latency
// rather than as silently reduced load. Latency is charged from the
// scheduled instant (no coordinated omission). On a virtual clock it is a
// single-goroutine discrete-event loop: every release and every create
// happens at its instant of simulated time, a create takes no simulated time,
// and one configuration always produces the same Report.
package storm

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dropzero/internal/epp"
	"dropzero/internal/loadgen"
	"dropzero/internal/model"
	"dropzero/internal/registry"
	"dropzero/internal/simtime"
	"dropzero/internal/zone"
)

// ClientProfile is one drop-catch operator in the storm: a service identity,
// the accreditations it rotates its sessions across, and its retry
// aggressiveness.
type ClientProfile struct {
	// Service labels the operator in the report (registrars.SvcDropCatch…).
	Service string
	// Accreditations are the IANA IDs the profile logs its sessions in
	// under, round-robin. More accreditations mean more rate-limit budget —
	// the paper's explanation for why three services hold 75 % of them.
	Accreditations []int
	// Sessions is the number of concurrent EPP connections (default 1).
	// A session carries one in-flight command at a time, like real EPP.
	Sessions int
	// Schedule is the per-name retry plan around its drop instant.
	Schedule loadgen.DropCatchSchedule
	// Compliant clients stop hammering a name once the server answers 2502
	// (rate limited); abusive ones ignore the push-back and keep firing.
	Compliant bool
	// PerDomainInFlight caps this profile's concurrent creates per name;
	// an attempt that finds the cap saturated is skipped (counted, not
	// queued — queuing would close the loop). 0 means uncapped.
	PerDomainInFlight int
}

// Config describes one storm run.
type Config struct {
	// Dial opens one EPP session; the harness logs it in. Use epp.Dial for
	// TCP or Server.ConnectInProc for the in-process transport.
	Dial func() (*epp.Client, error)
	// Credential returns the login token for an accreditation.
	Credential func(accred int) string
	// Drop is the contested names' release plan (DropRunner.Schedule's
	// entries, one zone's or several merged). Every profile races every
	// name, aiming its schedule at the entry's Time.
	Drop []registry.Scheduled
	// Release purges one instant's names: it is called once per distinct
	// Time, with every entry sharing it. Nil when the Drop is driven
	// externally (the harness then only generates load).
	Release func([]registry.Scheduled) error
	// Profiles are the competing operators.
	Profiles []ClientProfile
	// Years is the registration term requested (default 1).
	Years int
	// Zones, when set (typically the hosting store's Zones()), labels the
	// per-TLD report groups with the zone operating each TLD and adds a
	// per-zone aggregation — the split-accreditation simultaneous-drop
	// scenarios read win shares and tails per zone. Unknown TLDs group
	// under the empty zone name.
	Zones []zone.Config
	// Clock, when set, runs the storm in virtual time: Run sets it to each
	// event's instant and sends each create synchronously, so the
	// registry's rate limiters refill in simulated time. Sessions should be
	// in-process. Nil runs the storm on the wall clock, where only the
	// Drop's instants relative to one another matter.
	Clock *simtime.SimClock
}

// Win records one name's re-registration.
type Win struct {
	Name          string
	Accreditation int
	Service       string
	// Delay is ack instant minus drop instant — the paper's
	// re-registration delay, zero seconds being the headline.
	Delay time.Duration
}

// ProfileReport is one profile's attempt accounting.
type ProfileReport struct {
	Service     string
	Compliant   bool
	Attempts    uint64 // creates actually sent
	Wins        uint64
	RateLimited uint64 // 2502 answers received
	Skipped     uint64 // arrivals shed by the per-domain in-flight cap
	Settled     uint64 // arrivals not sent because the name was decided
	Errors      uint64 // transport or unexpected protocol failures
}

// GroupReport is one zone's slice of the storm: its share of the contested
// names, the attempts and wins it drew, its latency distribution, and its
// own FCFS audit tallies.
type GroupReport struct {
	// Key is the zone name ("" groups TLDs no configured zone operates).
	Key       string
	Names     int    // contested names in this group
	Attempts  uint64 // creates actually sent for this group's names
	Wins      uint64 // names re-registered
	MultiAcks int    // extra acks (FCFS violations) within the group
	Unclaimed int    // dropped names nobody re-registered
	// Creates holds the group's latency percentiles (p99.9 per zone is the
	// simultaneous-drop benchmark's headline).
	Creates loadgen.Result
}

// Report is the outcome of one storm.
type Report struct {
	// Creates holds latency percentiles and the per-code breakdown over
	// every create actually sent (skipped/settled arrivals excluded).
	Creates loadgen.Result
	// OfferedRPS is the scheduled attempt rate (all profiles, all names);
	// AchievedRPS is what was actually sent and answered.
	OfferedRPS  float64
	AchievedRPS float64
	// MaxLag is the dispatcher's worst lateness against the schedule; large
	// values mean the generator, not the server, was the bottleneck.
	MaxLag time.Duration
	// Winners maps each re-registered name to its win. MultiAcks counts
	// extra successful acks per name — always empty unless the registry's
	// FCFS guarantee is broken.
	Winners   map[string]Win
	MultiAcks map[string]int
	// WinsByAccreditation and WinsByService are the FCFS fairness
	// distribution.
	WinsByAccreditation map[int]int
	WinsByService       map[string]int
	Profiles            []ProfileReport
	// ByZone breaks the storm down per operating zone (Config.Zones labels
	// the mapping), sorted by zone name.
	ByZone []GroupReport
	// Unclaimed are names whose drop was applied but that nobody
	// re-registered before the schedules ran dry.
	Unclaimed []string
	// DropErrors are failures applying the Drop itself.
	DropErrors []error
	// FanoutLag, when a feed subscriber pool rode along with the storm, holds
	// the event hub's per-delivery fan-out lag (mutation append instant to
	// subscriber receipt) — how stale a drop-catcher watching the push feed
	// was while the create burst raged. Attached by the harness from
	// feed.Hub.FanoutLag after the run; nil when no pool was attached.
	FanoutLag *loadgen.Result
}

// AttachFanoutLag records the event feed's delivery-lag distribution.
func (r *Report) AttachFanoutLag(lag loadgen.Result) { r.FanoutLag = &lag }

// WinDelays returns every win's re-registration delay, ascending — the
// sample the delay-CDF figures are drawn from.
func (r *Report) WinDelays() []time.Duration {
	out := make([]time.Duration, 0, len(r.Winners))
	for _, w := range r.Winners {
		out = append(out, w.Delay)
	}
	slices.Sort(out)
	return out
}

// registryReader is the slice of registry.Store the post-storm audit needs.
type registryReader interface {
	Get(name string) (*model.Domain, error)
}

// VerifyWins audits the report against the registry: every acked create must
// be present in the store under the acked accreditation (a missing one is a
// lost ack — the client was told it owns a name the registry forgot), and no
// name may have been acked twice.
func (r *Report) VerifyWins(reg registryReader) error {
	var problems []error
	for name, n := range r.MultiAcks {
		problems = append(problems, fmt.Errorf("storm: %s acked %d times, want once", name, n+1))
	}
	for name, w := range r.Winners {
		d, err := reg.Get(name)
		if err != nil {
			problems = append(problems, fmt.Errorf("storm: lost ack: %s acked to %d but absent from registry: %w", name, w.Accreditation, err))
			continue
		}
		if d.RegistrarID != w.Accreditation {
			problems = append(problems, fmt.Errorf("storm: lost ack: %s acked to %d but registry says %d", name, w.Accreditation, d.RegistrarID))
		}
	}
	return errors.Join(problems...)
}

// arrival is one scheduled create attempt: the attempt-th of profile's
// stream at name (an index into the sorted Drop).
type arrival struct {
	off                    time.Duration
	profile, name, attempt int
}

// instant is one release: the sorted Drop's entries [lo, hi) share off.
type instant struct {
	off    time.Duration
	lo, hi int
}

// nameState is one (profile, name) stream's live state.
type nameState struct {
	inFlight atomic.Int32
	settled  atomic.Bool
}

type profileStats struct {
	attempts, wins, rateLimited, skipped, settled, errCount atomic.Uint64
}

// race is one storm's state. Every instant in it is an offset from the
// storm's origin, its first possible attempt.
type race struct {
	cfg      *Config
	years    int
	origin   time.Time
	drop     []registry.Scheduled // release order; a name's index is its place here
	instants []instant
	arrivals []arrival

	sessions      [][]*epp.Client
	sessionAccred [][]int
	rr            []int // per-profile session round-robin (dispatcher only)

	states []nameState // [profile*len(drop)+name]
	stats  []profileStats
	lats   []time.Duration
	fired  []bool
	codes  [][2]int // [code, valid]

	winMu     sync.Mutex
	winners   map[string]Win
	multiAcks map[string]int
	wonCount  atomic.Int64
	won       []atomic.Bool
	dropAt    []atomic.Int64 // release offset; -1 until released
	dropErrs  []error
}

// Run executes the storm and blocks until every in-flight attempt has been
// answered and every release applied.
func Run(cfg Config) (*Report, error) {
	if len(cfg.Drop) == 0 || len(cfg.Profiles) == 0 {
		return nil, errors.New("storm: need at least one name and one profile")
	}
	r := &race{cfg: &cfg, years: cfg.Years, winners: make(map[string]Win), multiAcks: make(map[string]int)}
	if r.years == 0 {
		r.years = 1
	}

	// Stand up every profile's sessions before the clock starts.
	r.sessions = make([][]*epp.Client, len(cfg.Profiles))
	r.sessionAccred = make([][]int, len(cfg.Profiles))
	defer func() {
		for _, ss := range r.sessions {
			for _, c := range ss {
				c.Close()
			}
		}
	}()
	for pi, p := range cfg.Profiles {
		if len(p.Accreditations) == 0 {
			return nil, fmt.Errorf("storm: profile %q has no accreditations", p.Service)
		}
		n := p.Sessions
		if n < 1 {
			n = 1
		}
		for s := 0; s < n; s++ {
			accred := p.Accreditations[s%len(p.Accreditations)]
			c, err := cfg.Dial()
			if err != nil {
				return nil, fmt.Errorf("storm: dial session %d of %q: %w", s, p.Service, err)
			}
			r.sessions[pi] = append(r.sessions[pi], c)
			r.sessionAccred[pi] = append(r.sessionAccred[pi], accred)
			if err := c.Login(accred, cfg.Credential(accred)); err != nil {
				return nil, fmt.Errorf("storm: login accreditation %d of %q: %w", accred, p.Service, err)
			}
		}
	}

	r.drop = slices.Clone(cfg.Drop)
	slices.SortFunc(r.drop, func(a, b registry.Scheduled) int {
		return cmp.Or(a.Time.Compare(b.Time), cmp.Compare(a.Name, b.Name))
	})
	// The origin is the first possible attempt: the earliest release less
	// the longest lead, and on a virtual clock no earlier than now.
	var lead time.Duration
	for _, p := range cfg.Profiles {
		lead = max(lead, p.Schedule.Lead)
	}
	r.origin = r.drop[0].Time.Add(-lead)
	if cfg.Clock != nil && r.origin.Before(cfg.Clock.Now()) {
		r.origin = cfg.Clock.Now()
	}
	for lo := 0; lo < len(r.drop); {
		hi := lo + 1
		for hi < len(r.drop) && r.drop[hi].Time.Equal(r.drop[lo].Time) {
			hi++
		}
		r.instants = append(r.instants, instant{off: r.drop[lo].Time.Sub(r.origin), lo: lo, hi: hi})
		lo = hi
	}

	// Expand every profile's schedule against every name into one arrival
	// list, in a total order: ties at one instant (every profile's pre-shot
	// at an instant zone's release) fire the same way every run.
	for pi, p := range cfg.Profiles {
		for ni, d := range r.drop {
			for k, off := range p.Schedule.Offsets(d.Time.Sub(r.origin)) {
				r.arrivals = append(r.arrivals, arrival{off: off, profile: pi, name: ni, attempt: k})
			}
		}
	}
	slices.SortFunc(r.arrivals, func(a, b arrival) int {
		return cmp.Or(cmp.Compare(a.off, b.off), cmp.Compare(a.profile, b.profile),
			cmp.Compare(a.name, b.name), cmp.Compare(a.attempt, b.attempt))
	})

	r.states = make([]nameState, len(cfg.Profiles)*len(r.drop))
	r.stats = make([]profileStats, len(cfg.Profiles))
	r.rr = make([]int, len(cfg.Profiles))
	r.lats = make([]time.Duration, len(r.arrivals))
	r.fired = make([]bool, len(r.arrivals))
	r.codes = make([][2]int, len(r.arrivals))
	r.won = make([]atomic.Bool, len(r.drop))
	r.dropAt = make([]atomic.Int64, len(r.drop))
	for i := range r.dropAt {
		r.dropAt[i].Store(-1)
	}

	var elapsed, maxLag time.Duration
	if cfg.Clock != nil {
		elapsed = r.runVirtual()
	} else {
		elapsed, maxLag = r.runWall()
	}
	return r.report(elapsed, maxLag), nil
}

// runWall is the open-loop dispatcher: a timer goroutine applies the
// releases while this one fires every arrival at its wall-clock instant, each
// create on its own goroutine.
func (r *race) runWall() (elapsed, maxLag time.Duration) {
	start := time.Now()
	since := func() time.Duration { return time.Since(start) }
	var dropWG, fireWG sync.WaitGroup
	if r.cfg.Release != nil {
		dropWG.Add(1)
		go func() {
			defer dropWG.Done()
			for _, in := range r.instants {
				if d := in.off - since(); d > 0 {
					time.Sleep(d)
				}
				r.release(in, since())
			}
		}()
	}
	for ai, a := range r.arrivals {
		if int(r.wonCount.Load()) == len(r.drop) {
			// Every name is decided; the remaining tail would be pure
			// objectExists noise. Drain it as settled.
			r.stats[a.profile].settled.Add(1)
			continue
		}
		if d := a.off - since(); d > 0 {
			time.Sleep(d)
		}
		if lag := since() - a.off; lag > maxLag {
			maxLag = lag
		}
		if !r.admit(a) {
			continue
		}
		client, accred := r.session(a.profile)
		fireWG.Add(1)
		go func() {
			defer fireWG.Done()
			r.send(ai, client, accred, since)
		}()
	}
	fireWG.Wait()
	dropWG.Wait()
	return since(), maxLag
}

// runVirtual is the discrete-event loop: releases and arrivals merged in
// time order (a release before the creates of its instant), the clock set
// to each event's instant, every create answered before the next event.
func (r *race) runVirtual() time.Duration {
	clock := r.cfg.Clock
	now := func() time.Duration { return clock.Now().Sub(r.origin) }
	advance := func(off time.Duration) {
		if t := r.origin.Add(off); t.After(clock.Now()) {
			clock.Set(t)
		}
	}
	next := 0
	releaseThrough := func(off time.Duration) {
		for ; next < len(r.instants) && r.instants[next].off <= off; next++ {
			advance(r.instants[next].off)
			r.release(r.instants[next], r.instants[next].off)
		}
	}
	for ai, a := range r.arrivals {
		releaseThrough(a.off)
		advance(a.off)
		if !r.admit(a) {
			continue
		}
		client, accred := r.session(a.profile)
		r.send(ai, client, accred, now)
	}
	releaseThrough(1<<63 - 1)
	return now()
}

// release applies one instant's entries at offset at.
func (r *race) release(in instant, at time.Duration) {
	if r.cfg.Release == nil {
		return
	}
	if err := r.cfg.Release(r.drop[in.lo:in.hi]); err != nil {
		r.dropErrs = append(r.dropErrs, fmt.Errorf("storm: release at %v: %w", r.drop[in.lo].Time, err))
		return
	}
	for ni := in.lo; ni < in.hi; ni++ {
		r.dropAt[ni].Store(int64(at))
	}
}

// admit decides whether arrival a is sent: not when its name is decided for
// the profile (settled) or the profile's per-name in-flight cap is full
// (skipped). An admitted arrival holds an in-flight slot until send returns.
func (r *race) admit(a arrival) bool {
	st := &r.states[a.profile*len(r.drop)+a.name]
	if st.settled.Load() || r.won[a.name].Load() {
		r.stats[a.profile].settled.Add(1)
		return false
	}
	if c := r.cfg.Profiles[a.profile].PerDomainInFlight; c > 0 && int(st.inFlight.Load()) >= c {
		r.stats[a.profile].skipped.Add(1)
		return false
	}
	st.inFlight.Add(1)
	return true
}

// session picks the profile's next session, round-robin.
func (r *race) session(profile int) (*epp.Client, int) {
	si := r.rr[profile] % len(r.sessions[profile])
	r.rr[profile]++
	return r.sessions[profile][si], r.sessionAccred[profile][si]
}

// send fires arrival ai and records the answer; now reads the storm's clock
// as an offset from the origin.
func (r *race) send(ai int, client *epp.Client, accred int, now func() time.Duration) {
	a := r.arrivals[ai]
	st := &r.states[a.profile*len(r.drop)+a.name]
	stats := &r.stats[a.profile]
	defer st.inFlight.Add(-1)
	stats.attempts.Add(1)
	name := r.drop[a.name].Name
	_, err := client.Create(name, r.years)
	ack := now()
	r.lats[ai] = ack - a.off
	r.fired[ai] = true
	switch {
	case err == nil:
		r.codes[ai] = [2]int{epp.CodeOK, 1}
		stats.wins.Add(1)
		st.settled.Store(true)
		first := r.won[a.name].CompareAndSwap(false, true)
		r.winMu.Lock()
		if first {
			r.wonCount.Add(1)
			delay := time.Duration(0)
			if d := r.dropAt[a.name].Load(); d >= 0 {
				delay = ack - time.Duration(d)
			}
			r.winners[name] = Win{
				Name:          name,
				Accreditation: accred,
				Service:       r.cfg.Profiles[a.profile].Service,
				Delay:         delay,
			}
		} else {
			r.multiAcks[name]++
		}
		r.winMu.Unlock()
	case epp.IsCode(err, epp.CodeObjectExists):
		// Pre-drop, or lost the race; the schedule keeps trying until the
		// name is seen won.
		r.codes[ai] = [2]int{epp.CodeObjectExists, 1}
	case epp.IsCode(err, epp.CodeRateLimited):
		r.codes[ai] = [2]int{epp.CodeRateLimited, 1}
		stats.rateLimited.Add(1)
		if r.cfg.Profiles[a.profile].Compliant {
			st.settled.Store(true)
		}
	default:
		var re *epp.ResultError
		if errors.As(err, &re) {
			r.codes[ai] = [2]int{re.Code, 1}
		}
		stats.errCount.Add(1)
	}
}

// unclaimed reports whether name ni was released but nobody won it.
func (r *race) unclaimed(ni int) bool { return r.dropAt[ni].Load() >= 0 && !r.won[ni].Load() }

// report folds the per-arrival observations into the Report.
func (r *race) report(elapsed, maxLag time.Duration) *Report {
	var sentLats []time.Duration
	var errCount uint64
	codeCounts := make(map[int]uint64)
	for ai := range r.arrivals {
		if !r.fired[ai] {
			continue
		}
		sentLats = append(sentLats, r.lats[ai])
		if r.codes[ai][1] == 1 {
			codeCounts[r.codes[ai][0]]++
		}
	}
	rep := &Report{
		Winners:             r.winners,
		MultiAcks:           r.multiAcks,
		WinsByAccreditation: make(map[int]int),
		WinsByService:       make(map[string]int),
		MaxLag:              maxLag,
		DropErrors:          r.dropErrs,
	}
	for pi, p := range r.cfg.Profiles {
		s := &r.stats[pi]
		errCount += s.errCount.Load()
		rep.Profiles = append(rep.Profiles, ProfileReport{
			Service:     p.Service,
			Compliant:   p.Compliant,
			Attempts:    s.attempts.Load(),
			Wins:        s.wins.Load(),
			RateLimited: s.rateLimited.Load(),
			Skipped:     s.skipped.Load(),
			Settled:     s.settled.Load(),
			Errors:      s.errCount.Load(),
		})
	}
	rep.Creates = loadgen.Collect(sentLats, errCount, elapsed, codeCounts)
	for _, w := range r.winners {
		rep.WinsByAccreditation[w.Accreditation]++
		rep.WinsByService[w.Service]++
	}
	for ni, d := range r.drop {
		if r.unclaimed(ni) {
			rep.Unclaimed = append(rep.Unclaimed, d.Name)
		}
	}
	slices.Sort(rep.Unclaimed)
	if n := len(r.arrivals); n > 0 {
		if horizon := r.arrivals[n-1].off; horizon > 0 {
			rep.OfferedRPS = float64(n) / horizon.Seconds()
		}
	}
	if elapsed > 0 {
		rep.AchievedRPS = float64(len(sentLats)) / elapsed.Seconds()
	}
	rep.ByZone = r.groupReports(elapsed)
	return rep
}

// groupReports folds the per-arrival observations into per-zone groups.
func (r *race) groupReports(elapsed time.Duration) []GroupReport {
	zoneOf := make(map[model.TLD]string)
	for _, z := range r.cfg.Zones {
		for _, t := range z.TLDs {
			zoneOf[t] = z.Name
		}
	}
	keyOf := make([]string, len(r.drop))
	for ni, d := range r.drop {
		if t, ok := model.TLDOf(d.Name); ok {
			keyOf[ni] = zoneOf[t]
		}
	}

	samples := make([]loadgen.Sample, 0, len(r.arrivals))
	for ai, a := range r.arrivals {
		if !r.fired[ai] {
			continue
		}
		samples = append(samples, loadgen.Sample{
			Key:     keyOf[a.name],
			Latency: r.lats[ai],
			Code:    r.codes[ai][0],
			Coded:   r.codes[ai][1] == 1,
		})
	}
	results := loadgen.CollectBy(samples, elapsed)
	groups := make(map[string]*GroupReport, len(results))
	group := func(key string) *GroupReport {
		g := groups[key]
		if g == nil {
			g = &GroupReport{Key: key}
			groups[key] = g
		}
		return g
	}
	for key, res := range results {
		g := group(key)
		g.Creates = res
		g.Attempts = res.Requests
	}
	for ni, d := range r.drop {
		g := group(keyOf[ni])
		g.Names++
		if r.won[ni].Load() {
			g.Wins++
		}
		g.MultiAcks += r.multiAcks[d.Name]
		if r.unclaimed(ni) {
			g.Unclaimed++
		}
	}
	out := make([]GroupReport, 0, len(groups))
	for _, g := range groups {
		out = append(out, *g)
	}
	slices.SortFunc(out, func(a, b GroupReport) int { return cmp.Compare(a.Key, b.Key) })
	return out
}
