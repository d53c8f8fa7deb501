// Package storm drives drop-catch create storms against a live EPP surface:
// many concurrent sessions, each following a pre-drop retry schedule, racing
// to re-register names as a Drop purges them. It is the load side of the
// paper's measurement — the registry sees exactly what a registry operator
// sees during the daily deletion window, and the report answers the paper's
// questions: who wins, how fast after deletion, and what the tail latency of
// a create looks like under contention.
//
// The engine is open-loop: every scheduled attempt fires at its appointed
// instant whether or not earlier attempts have returned, so server backlog
// shows up as latency rather than as silently reduced load. Latency is
// charged from the scheduled instant (no coordinated omission).
package storm

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dropzero/internal/epp"
	"dropzero/internal/loadgen"
	"dropzero/internal/model"
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
	// Names are the contested names; DropOffsets (parallel, same length)
	// say when each is purged, relative to storm start.
	Names       []string
	DropOffsets []time.Duration
	// Drop purges one name at its offset. Nil when the Drop is driven
	// externally (the harness then only generates load).
	Drop func(name string) error
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

// GroupReport is one TLD's (or one zone's) slice of the storm: its share of
// the contested names, the attempts and wins it drew, its latency
// distribution, and its own FCFS audit tallies.
type GroupReport struct {
	// Key is the TLD (for ByTLD) or the zone name (for ByZone; "" groups
	// TLDs no configured zone operates).
	Key string
	// Zone is the operating zone's name on a ByTLD entry ("" when unknown).
	Zone      string
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
	// ByTLD breaks the storm down per TLD, sorted by TLD; ByZone aggregates
	// those groups per operating zone (Config.Zones labels the mapping),
	// sorted by zone name.
	ByTLD  []GroupReport
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

// arrival is one scheduled create attempt.
type arrival struct {
	off     time.Duration
	profile int
	name    int
}

// nameState is one (profile, name) stream's live state.
type nameState struct {
	inFlight atomic.Int32
	settled  atomic.Bool
}

type profileStats struct {
	attempts, wins, rateLimited, skipped, settled, errCount atomic.Uint64
}

// Run executes the storm and blocks until every in-flight attempt has been
// answered and every drop applied.
func Run(cfg Config) (*Report, error) {
	if len(cfg.Names) != len(cfg.DropOffsets) {
		return nil, fmt.Errorf("storm: %d names but %d drop offsets", len(cfg.Names), len(cfg.DropOffsets))
	}
	if len(cfg.Names) == 0 || len(cfg.Profiles) == 0 {
		return nil, errors.New("storm: need at least one name and one profile")
	}
	years := cfg.Years
	if years == 0 {
		years = 1
	}

	// Stand up every profile's sessions before the clock starts.
	sessions := make([][]*epp.Client, len(cfg.Profiles))
	sessionAccred := make([][]int, len(cfg.Profiles))
	defer func() {
		for _, ss := range sessions {
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
			sessions[pi] = append(sessions[pi], c)
			sessionAccred[pi] = append(sessionAccred[pi], accred)
			if err := c.Login(accred, cfg.Credential(accred)); err != nil {
				return nil, fmt.Errorf("storm: login accreditation %d of %q: %w", accred, p.Service, err)
			}
		}
	}

	// Expand every profile's schedule against every name into one global
	// arrival list.
	var arrivals []arrival
	for pi, p := range cfg.Profiles {
		for ni := range cfg.Names {
			for _, off := range p.Schedule.Offsets(cfg.DropOffsets[ni]) {
				arrivals = append(arrivals, arrival{off: off, profile: pi, name: ni})
			}
		}
	}
	sort.Slice(arrivals, func(i, j int) bool { return arrivals[i].off < arrivals[j].off })

	states := make([][]nameState, len(cfg.Profiles))
	stats := make([]profileStats, len(cfg.Profiles))
	rr := make([]atomic.Uint64, len(cfg.Profiles)) // session round-robin
	for pi := range cfg.Profiles {
		states[pi] = make([]nameState, len(cfg.Names))
	}

	var (
		winMu     sync.Mutex
		winners   = make(map[string]Win)
		multiAcks = make(map[string]int)
		wonCount  atomic.Int64
		won       = make([]atomic.Bool, len(cfg.Names))
		dropAt    = make([]atomic.Int64, len(cfg.Names)) // ns since start; 0 = not yet
		dropErrs  []error
		dropWG    sync.WaitGroup
	)

	start := time.Now()

	// The Drop itself: a timer goroutine purging each name at its offset.
	if cfg.Drop != nil {
		order := make([]int, len(cfg.Names))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(i, j int) bool {
			return cfg.DropOffsets[order[i]] < cfg.DropOffsets[order[j]]
		})
		dropWG.Add(1)
		go func() {
			defer dropWG.Done()
			for _, ni := range order {
				at := start.Add(cfg.DropOffsets[ni])
				if d := time.Until(at); d > 0 {
					time.Sleep(d)
				}
				instant := time.Now()
				if err := cfg.Drop(cfg.Names[ni]); err != nil {
					dropErrs = append(dropErrs, fmt.Errorf("storm: drop %s: %w", cfg.Names[ni], err))
					continue
				}
				dropAt[ni].Store(instant.Sub(start).Nanoseconds())
			}
		}()
	}

	// The storm dispatcher: open-loop over the merged arrival schedule.
	lats := make([]time.Duration, len(arrivals))
	fired := make([]bool, len(arrivals))
	codes := make([][2]int, len(arrivals)) // [code, valid]
	var maxLag time.Duration
	var fireWG sync.WaitGroup
	for ai, a := range arrivals {
		if int(wonCount.Load()) == len(cfg.Names) {
			// Every name is decided; the remaining tail would be pure
			// objectExists noise. Drain it as settled.
			stats[a.profile].settled.Add(1)
			continue
		}
		at := start.Add(a.off)
		if d := time.Until(at); d > 0 {
			time.Sleep(d)
		}
		if lag := time.Since(at); lag > maxLag {
			maxLag = lag
		}
		p := &cfg.Profiles[a.profile]
		st := &states[a.profile][a.name]
		if st.settled.Load() || won[a.name].Load() {
			stats[a.profile].settled.Add(1)
			continue
		}
		if p.PerDomainInFlight > 0 && int(st.inFlight.Load()) >= p.PerDomainInFlight {
			stats[a.profile].skipped.Add(1)
			continue
		}
		st.inFlight.Add(1)
		sess := sessions[a.profile]
		si := int(rr[a.profile].Add(1)-1) % len(sess)
		fireWG.Add(1)
		go func(ai int, a arrival, client *epp.Client, accred int, at time.Time) {
			defer fireWG.Done()
			defer st.inFlight.Add(-1)
			stats[a.profile].attempts.Add(1)
			_, err := client.Create(cfg.Names[a.name], years)
			lats[ai] = time.Since(at)
			fired[ai] = true
			ack := time.Now()
			switch {
			case err == nil:
				codes[ai] = [2]int{epp.CodeOK, 1}
				stats[a.profile].wins.Add(1)
				st.settled.Store(true)
				first := won[a.name].CompareAndSwap(false, true)
				winMu.Lock()
				if first {
					wonCount.Add(1)
					delay := time.Duration(0)
					if d := dropAt[a.name].Load(); d > 0 {
						delay = ack.Sub(start.Add(time.Duration(d)))
					}
					winners[cfg.Names[a.name]] = Win{
						Name:          cfg.Names[a.name],
						Accreditation: accred,
						Service:       p.Service,
						Delay:         delay,
					}
				} else {
					multiAcks[cfg.Names[a.name]]++
				}
				winMu.Unlock()
			case epp.IsCode(err, epp.CodeObjectExists):
				// Pre-drop, or lost the race; the schedule keeps trying
				// until the name is seen won.
				codes[ai] = [2]int{epp.CodeObjectExists, 1}
			case epp.IsCode(err, epp.CodeRateLimited):
				codes[ai] = [2]int{epp.CodeRateLimited, 1}
				stats[a.profile].rateLimited.Add(1)
				if p.Compliant {
					st.settled.Store(true)
				}
			default:
				var re *epp.ResultError
				if errors.As(err, &re) {
					codes[ai] = [2]int{re.Code, 1}
				}
				stats[a.profile].errCount.Add(1)
			}
		}(ai, a, sess[si], sessionAccred[a.profile][si], at)
	}
	fireWG.Wait()
	dropWG.Wait()
	elapsed := time.Since(start)

	// Fold the per-arrival observations into the report.
	var sentLats []time.Duration
	var errCount uint64
	codeCounts := make(map[int]uint64)
	for ai := range arrivals {
		if !fired[ai] {
			continue
		}
		sentLats = append(sentLats, lats[ai])
		if codes[ai][1] == 1 {
			codeCounts[codes[ai][0]]++
		}
	}
	rep := &Report{
		Winners:             winners,
		MultiAcks:           multiAcks,
		WinsByAccreditation: make(map[int]int),
		WinsByService:       make(map[string]int),
		MaxLag:              maxLag,
		DropErrors:          dropErrs,
	}
	for pi := range cfg.Profiles {
		errCount += stats[pi].errCount.Load()
		rep.Profiles = append(rep.Profiles, ProfileReport{
			Service:     cfg.Profiles[pi].Service,
			Compliant:   cfg.Profiles[pi].Compliant,
			Attempts:    stats[pi].attempts.Load(),
			Wins:        stats[pi].wins.Load(),
			RateLimited: stats[pi].rateLimited.Load(),
			Skipped:     stats[pi].skipped.Load(),
			Settled:     stats[pi].settled.Load(),
			Errors:      stats[pi].errCount.Load(),
		})
	}
	rep.Creates = loadgen.Collect(sentLats, errCount, elapsed, codeCounts)
	for _, w := range winners {
		rep.WinsByAccreditation[w.Accreditation]++
		rep.WinsByService[w.Service]++
	}
	for ni, name := range cfg.Names {
		if dropAt[ni].Load() > 0 && !won[ni].Load() {
			rep.Unclaimed = append(rep.Unclaimed, name)
		}
	}
	slices.Sort(rep.Unclaimed)
	if n := len(arrivals); n > 0 {
		if horizon := arrivals[n-1].off; horizon > 0 {
			rep.OfferedRPS = float64(n) / horizon.Seconds()
		}
	}
	if elapsed > 0 {
		rep.AchievedRPS = float64(len(sentLats)) / elapsed.Seconds()
	}
	rep.ByTLD, rep.ByZone = groupReports(cfg, arrivals, fired, lats, codes, winners, multiAcks, rep.Unclaimed, elapsed)
	return rep, nil
}

// groupReports folds the per-arrival observations into per-TLD groups and
// aggregates those per operating zone.
func groupReports(cfg Config, arrivals []arrival, fired []bool, lats []time.Duration,
	codes [][2]int, winners map[string]Win, multiAcks map[string]int,
	unclaimed []string, elapsed time.Duration) (byTLD, byZone []GroupReport) {
	tldOf := make([]string, len(cfg.Names))
	for ni, name := range cfg.Names {
		if t, ok := model.TLDOf(name); ok {
			tldOf[ni] = string(t)
		}
	}
	zoneOf := make(map[string]string) // TLD -> zone name
	for _, z := range cfg.Zones {
		for _, t := range z.TLDs {
			zoneOf[string(t)] = z.Name
		}
	}
	nameIdx := make(map[string]int, len(cfg.Names))
	for ni, name := range cfg.Names {
		nameIdx[name] = ni
	}

	build := func(keyOf func(ni int) string) []GroupReport {
		samples := make([]loadgen.Sample, 0, len(arrivals))
		for ai := range arrivals {
			if !fired[ai] {
				continue
			}
			samples = append(samples, loadgen.Sample{
				Key:     keyOf(arrivals[ai].name),
				Latency: lats[ai],
				Code:    codes[ai][0],
				Coded:   codes[ai][1] == 1,
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
		for key, r := range results {
			g := group(key)
			g.Creates = r
			g.Attempts = r.Requests
		}
		for ni, name := range cfg.Names {
			g := group(keyOf(ni))
			g.Names++
			if _, ok := winners[name]; ok {
				g.Wins++
			}
			g.MultiAcks += multiAcks[name]
		}
		for _, name := range unclaimed {
			if ni, ok := nameIdx[name]; ok {
				group(keyOf(ni)).Unclaimed++
			}
		}
		out := make([]GroupReport, 0, len(groups))
		for _, g := range groups {
			out = append(out, *g)
		}
		slices.SortFunc(out, func(a, b GroupReport) int { return cmp.Compare(a.Key, b.Key) })
		return out
	}

	byTLD = build(func(ni int) string { return tldOf[ni] })
	for i := range byTLD {
		byTLD[i].Zone = zoneOf[byTLD[i].Key]
	}
	byZone = build(func(ni int) string { return zoneOf[tldOf[ni]] })
	for i := range byZone {
		byZone[i].Zone = byZone[i].Key
	}
	return byTLD, byZone
}
