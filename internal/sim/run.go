package sim

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"time"

	"dropzero/internal/dropscope"
	"dropzero/internal/journal"
	"dropzero/internal/measure"
	"dropzero/internal/model"
	"dropzero/internal/par"
	"dropzero/internal/rdap"
	"dropzero/internal/registrars"
	"dropzero/internal/registry"
	"dropzero/internal/safebrowsing"
	"dropzero/internal/simtime"
	"dropzero/internal/whois"
	"dropzero/internal/zone"
)

// Result is everything a study produces.
type Result struct {
	Config Config
	// Zones is the effective zone list the study ran over: the default
	// .com/.net zone followed by Config.Zones' extra zones.
	Zones []zone.Config
	// Observations is the measured dataset: every .com domain from the
	// pending delete lists with collected prior metadata, sorted by name.
	Observations []model.Observation
	// Deletions is the registry's ground-truth event log per day, every
	// zone combined in zone-drop order: within a day, zones appear in
	// drop-start order, and each zone's events (.com and .net combined for
	// the default zone) in deletion order.
	Deletions map[simtime.Day][]model.DeletionEvent
	// DropEnd is the true end of each day's Drop.
	DropEnd map[simtime.Day]time.Time
	// Truths is ground truth joined to Deletions by position: for every day
	// d, len(Truths[d]) == len(Deletions[d]) and Truths[d][k] is the truth of
	// the deletion Deletions[d][k].
	Truths map[simtime.Day][]Truth
	// Directory is the registrar ecosystem (carries ground-truth Service
	// labels for scoring the contact clustering).
	Directory *registrars.Directory
	// Registrars is every accreditation, as also served via RDAP.
	Registrars []model.Registrar
	// PipelineStats reports measurement activity (lookup counts, RDAP
	// failures, WHOIS fallbacks).
	PipelineStats measure.Stats
	// Recovered reports what the durability journal reconstructed before
	// the run proper started (zero value for memory-only or fresh runs).
	Recovered journal.Recovery
}

// zoneLane is one zone's drop machinery inside the day loop: its runner,
// its pacing RNG stream, its registrar market, and the wall-clock instant
// its Drop starts. zi is the zone's index in Config.zones().
type zoneLane struct {
	zi      int
	name    string
	scope   map[model.TLD]bool
	runner  *registry.DropRunner
	rng     *rand.Rand
	market  *registrars.Market
	startAt [2]int // {hour, minute} UTC
}

// pendingCreate is one market claim awaiting materialisation, ordered by its
// re-registration instant.
type pendingCreate struct {
	claim *registrars.Claim
	at    time.Time
	name  string
}

// filterEvents narrows a day's deletion archive to one zone's TLDs,
// preserving order.
func filterEvents(evs []model.DeletionEvent, scope map[model.TLD]bool) []model.DeletionEvent {
	var out []model.DeletionEvent
	for _, ev := range evs {
		if scope[ev.TLD()] {
			out = append(out, ev)
		}
	}
	return out
}

// holdNamesOnce rebuilds every row of obs on the equal name of its deletion
// event, and on a clone of its name if it has none. Run calls it on a resume
// only, whose restored names are decoded journal bytes (a fresh pipeline
// holds the store's, which are its events'). The rows learn nothing: each
// keeps the name and fields it had, byte for byte.
func holdNamesOnce(obs []model.Observation, deletions map[simtime.Day][]model.DeletionEvent) error {
	var names []string
	for _, evs := range deletions {
		for i := range evs {
			names = append(names, evs[i].Name())
		}
	}
	slices.Sort(names)
	for i := range obs {
		o := &obs[i]
		name := o.Name()
		if k, ok := slices.BinarySearch(names, name); ok {
			name = names[k]
		} else {
			name = strings.Clone(name)
		}
		var rereg *model.Rereg
		if o.Reregistered() {
			rereg = &model.Rereg{Time: o.ReregTime(), RegistrarID: o.ReregRegistrar()}
		}
		var err error
		if *o, err = model.NewObservation(name, o.DeleteDay(), o.Prior(), rereg, o.Malicious()); err != nil {
			return fmt.Errorf("sim: restored row: %w", err)
		}
	}
	return nil
}

// Run executes a full study. It is deterministic for a given Config: equal
// configs give byte-identical results — including when the run is a resume
// of a crashed one. Every client of the measurement pipeline is bound to its
// server in-process: a memory-only Run opens no socket, and its rows share
// their names' bytes with their deletion events. With Config.DataDir
// set, every registry mutation and each day's pipeline collection goes
// through a write-ahead journal, and Run first recovers whatever the
// directory holds, then re-executes only the remainder of the study.
//
// Resume never re-runs completed work against the live registry (whose
// state has moved past it); instead it replays the decision process from
// recovered ground truth. The deletion archive feeds the market's
// per-lot decisions and the label draws, so every RNG stream advances
// exactly as the uninterrupted run advanced it, the oracle relearns its
// labels, and Truths is rebuilt — while the registry itself, the deletion
// log and the pipeline state come from the journal. A day interrupted
// mid-Drop reconstructs its original queue as the archived prefix plus the
// still-pending remainder, re-derives the original schedule (the pacing
// draws depend only on queue length), and purges only the unfinished tail.
func Run(cfg Config) (*Result, error) {
	if cfg.Days <= 0 || cfg.Scale <= 0 {
		return nil, fmt.Errorf("sim: config needs positive Days and Scale (got %d, %g)", cfg.Days, cfg.Scale)
	}
	zones, err := cfg.zones()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	clock := simtime.NewSimClock(cfg.StartDay.AddDays(-1).At(12, 0, 0))

	// Ecosystem.
	dir := registrars.BuildDirectory(rng)
	store := registry.NewStoreWithShards(clock, cfg.Shards)

	// Durability: recover the registry and the driver's own checkpoint
	// stream before anything else touches the store.
	journaled := cfg.DataDir != "" && cfg.Durability != journal.ModeOff
	snapDays := cfg.snapshotDays
	if snapDays <= 0 {
		snapDays = 7
	}
	var jnl *journal.Journal
	var rec journal.Recovery
	resumePoint := 0 // study days whose collection is already in the pipeline state
	var deltas []*measure.CollectDelta
	if journaled {
		var err error
		jnl, rec, err = journal.Open(store, journal.Options{
			Dir:     cfg.DataDir,
			Mode:    cfg.Durability,
			KeepAll: cfg.keepCheckpoints,
		})
		if err != nil {
			return nil, err
		}
		defer jnl.Close()
		if rec.AppState != nil {
			cp, err := decodeCheckpoint(rec.AppState)
			if err != nil {
				return nil, err
			}
			// The snapshot's pipeline state is the first delta to replay.
			deltas = append(deltas, &cp.Delta)
			resumePoint = cp.Day
		}
		for _, raw := range rec.AppRecords {
			r, err := decodeDayRecord(raw)
			if err != nil {
				return nil, err
			}
			if r.Day < resumePoint {
				continue // already folded into the snapshot's pipeline state
			}
			if r.Day != resumePoint {
				return nil, fmt.Errorf("sim: recovery: collection for day %d follows day %d", r.Day, resumePoint-1)
			}
			d := r.Delta
			deltas = append(deltas, &d)
			resumePoint = r.Day + 1
		}
		store.SetJournal(jnl)
	}

	for _, r := range dir.Registrars() {
		store.AddRegistrar(r)
	}
	// Extra zones install before any of their domains can exist; a journaled
	// resume has replayed them already and only has them checked.
	if err := store.InstallZones(zones[1:]); err != nil {
		return nil, err
	}
	oracle := safebrowsing.NewOracle()
	labelRng := rand.New(rand.NewSource(cfg.Seed + 13))

	// Population. Generation is pure (RNG-only); insertion is skipped once
	// any day's collection has completed — by then seeding had finished and
	// Drops may already have purged some of the seeds. Each zone seeds its
	// own population from its own streams, merged into one global
	// creation-time order.
	var specs []domainSpec
	for zi, z := range zones {
		base := cfg.Seed + zoneSeedStride*int64(zi)
		specs = mergeSpecs(specs, newSeeder(cfg, dir, z.TLDs, base).generate(z.Lifecycle))
	}
	meta := lotMetas(specs)
	if resumePoint == 0 {
		if err := insertAll(store, specs, journaled && !rec.Fresh()); err != nil {
			return nil, err
		}
	}

	// Public surfaces, bound in-process. RDAP failures are attached to tail
	// registrars that sponsor expiring domains, so the WHOIS fallback fires.
	failures := map[int]int{}
	tail := dir.Accreditations(registrars.SvcOther)
	for i := 0; i < cfg.RDAPFailures && i < len(tail); i++ {
		failures[tail[i]] = 500
	}
	pipeline := &measure.Pipeline{
		Lists:       dropscope.NewBoundClient(dropscope.NewServer(store)),
		RDAP:        rdap.NewBoundClient(rdap.NewServer(store, rdap.ServerConfig{FailRegistrars: failures})),
		WHOIS:       whois.NewBoundClient(whois.NewServer(store)),
		Oracle:      safebrowsing.NewBoundClient(oracle),
		TLDFilter:   model.COM,
		Parallelism: par.Workers(cfg.Parallelism),
		TrackDeltas: journaled,
	}
	for _, d := range deltas {
		if err := pipeline.ApplyDelta(d); err != nil {
			return nil, err
		}
	}

	// One drop lane per zone, processed in drop-start order within each day;
	// on a tie the default zone goes first, then extra zones by name. Each
	// lane runs its zone's policy, pacing RNG and market.
	lanes := make([]*zoneLane, len(zones))
	for zi, z := range zones {
		base := cfg.Seed + zoneSeedStride*int64(zi)
		z.Drop = cfg.scaledZoneDrop(z)
		runner, err := registry.NewZoneDropRunner(store, z)
		if err != nil {
			return nil, err
		}
		lanes[zi] = &zoneLane{
			zi:      zi,
			name:    z.Name,
			scope:   z.TLDSet(),
			runner:  runner,
			rng:     rand.New(rand.NewSource(base + 5)),
			market:  registrars.NewMarket(dir, cfg.Market, rand.New(rand.NewSource(base+11))),
			startAt: [2]int{z.Drop.StartHour, z.Drop.StartMinute},
		}
	}
	slices.SortStableFunc(lanes, func(a, b *zoneLane) int {
		return cmp.Or(
			cmp.Compare(a.startAt[0]*60+a.startAt[1], b.startAt[0]*60+b.startAt[1]),
			cmp.Compare(min(a.zi, 1), min(b.zi, 1)),
			strings.Compare(a.name, b.name))
	})

	res := &Result{
		Config:     cfg,
		Zones:      store.Zones(),
		Deletions:  make(map[simtime.Day][]model.DeletionEvent, cfg.Days),
		DropEnd:    make(map[simtime.Day]time.Time, cfg.Days),
		Truths:     make(map[simtime.Day][]Truth, cfg.Days),
		Directory:  dir,
		Registrars: dir.Registrars(),
		Recovered:  rec,
	}
	ctx := context.Background()

	day := cfg.StartDay
	for i := 0; i < cfg.Days; i++ {
		// Morning: the measurement pipeline downloads today's pending list
		// and collects metadata for domains deleting three days out. A
		// resumed day's collection is already in the restored pipeline
		// state — the lookups it made saw a registry that no longer exists,
		// so it must never re-run.
		if i >= resumePoint {
			clock.Set(day.At(10, 0, 0))
			if err := pipeline.CollectDaily(ctx, day); err != nil {
				return nil, err
			}
			if journaled {
				delta := pipeline.TakeDelta()
				if delta == nil {
					return nil, fmt.Errorf("sim: day %d: pipeline produced no delta", i)
				}
				if wait := jnl.AppendApp(encodeDayRecord(&dayRecord{Day: i, Delta: *delta})); wait != nil {
					if err := wait(); err != nil {
						return nil, err
					}
				}
			}
		}

		// Each zone's Drop, in start order (04:00 instant releases run
		// before the 19:00 paced one). Per lane, the day's original queue
		// is the recovered deletion archive (the part that already ran,
		// narrowed to the lane's TLDs) followed by whatever is still
		// pending; re-deriving the schedule over the whole queue consumes
		// exactly the pacing draws the uninterrupted run would have, then
		// only the unfinished tail is executed.
		//
		// The market claims deleted names; claims materialise in
		// chronological order so registry IDs keep increasing with time.
		// On resume this replays decisions for recovered days too — the
		// market and label RNG streams advance identically, the oracle
		// relearns every label — but a claim whose registration already
		// survived the crash is verified against the store instead of
		// re-created.
		archivedAll := store.Deletions(day)
		var (
			// The day's events and truths, every lane's run appended in
			// place: each slice is grown once per lane to that lane's queue
			// length, and a lane's own events are the tail it appended.
			dayEvents []model.DeletionEvent
			dayTruths []Truth
			dayEnd    time.Time
			creates   []pendingCreate
		)
		for _, lane := range lanes {
			archived := filterEvents(archivedAll, lane.scope)
			remaining := lane.runner.BuildQueue(day)
			queue := make([]registry.QueueEntry, 0, len(archived)+len(remaining))
			for _, ev := range archived {
				queue = append(queue, registry.QueueEntry{Name: ev.Name(), TLD: ev.TLD(), ID: ev.DomainID()})
			}
			queue = append(queue, remaining...)
			// Deletion instants are explicit in the schedule, so the shared
			// clock only marks the lane start for store reads — and stays
			// put for lanes whose start (an 04:00 instant release) precedes
			// the pipeline's 10:00 morning pass; SimClock is monotonic.
			if len(remaining) > 0 {
				if at := day.At(lane.startAt[0], lane.startAt[1], 0); !at.Before(clock.Now()) {
					clock.Set(at)
				}
			}
			sched := lane.runner.ScheduleQueue(day, queue, lane.rng)
			for k, ev := range archived {
				if sched[k].Name != ev.Name() || !sched[k].Time.Equal(ev.Time()) {
					return nil, fmt.Errorf("sim: resume: recovered deletion %d on %v (%s at %v) disagrees with the replayed schedule (%s at %v)",
						k, day, ev.Name(), ev.Time(), sched[k].Name, sched[k].Time)
				}
			}
			first := len(dayEvents)
			dayEvents = append(slices.Grow(dayEvents, len(sched)), archived...)
			for _, s := range sched[len(archived):] {
				ev, err := lane.runner.Apply(s)
				if err != nil {
					return nil, err
				}
				dayEvents = append(dayEvents, ev)
			}
			events := dayEvents[first:]
			dropEnd := registry.EndTime(events)
			if dropEnd.After(dayEnd) {
				dayEnd = dropEnd
			}
			dayTruths = slices.Grow(dayTruths, len(events))
			for _, ev := range events {
				m := meta[ev.Name()]
				lot := registrars.Lot{
					Name:      ev.Name(),
					Value:     m.value,
					AgeYears:  m.ageYears,
					DeletedAt: ev.Time(),
					DropEnd:   dropEnd,
				}
				claim := lane.market.Decide(lot)
				truth, err := newTruth(ev.Name(), m.value, m.ageYears, claim)
				if err != nil {
					return nil, err
				}
				dayTruths = append(dayTruths, truth)
				if claim == nil {
					continue
				}
				creates = append(creates, pendingCreate{claim: claim, at: claim.Time(lot), name: ev.Name()})
			}
		}
		res.Deletions[day] = dayEvents
		res.Truths[day] = dayTruths
		res.DropEnd[day] = dayEnd
		slices.SortStableFunc(creates, func(a, b pendingCreate) int { return a.at.Compare(b.at) })
		for _, c := range creates {
			if d, err := store.Get(c.name); err == nil {
				if d.RegistrarID != c.claim.RegistrarID || !d.Created.Equal(c.at) {
					return nil, fmt.Errorf("sim: resume: recovered registration of %s (registrar %d at %v) disagrees with the replayed claim (registrar %d at %v)",
						c.name, d.RegistrarID, d.Created, c.claim.RegistrarID, c.at)
				}
			} else if _, err := store.CreateAt(c.name, c.claim.RegistrarID, 1, c.at); err != nil {
				return nil, fmt.Errorf("sim: materialise claim for %s: %w", c.name, err)
			}
			oracle.Set(c.name, cfg.Labels.Label(c.claim.Delay, labelRng))
		}

		if journaled && i+1 >= resumePoint && (i+1)%snapDays == 0 {
			if err := jnl.Snapshot(encodeCheckpoint(i+1, pipeline.State())); err != nil {
				return nil, err
			}
		}

		// In async mode appends are acknowledged before they are durable, so
		// a poisoned WAL would otherwise stay invisible until the final
		// Close; fail the run at day granularity instead.
		if journaled {
			if err := jnl.Err(); err != nil {
				return nil, fmt.Errorf("sim: day %d: journal: %w", i, err)
			}
		}

		day = day.Next()
		if i+1 >= resumePoint {
			clock.Set(day.At(0, 1, 0))
		}
	}

	// ≥8 weeks later: the re-registration lookups.
	finalDay := cfg.StartDay.AddDays(cfg.Days + cfg.FinalizeAfterDays)
	clock.Set(finalDay.At(12, 0, 0))
	obs, err := pipeline.Finalize(ctx)
	if err != nil {
		return nil, err
	}
	if len(deltas) > 0 {
		if err := holdNamesOnce(obs, res.Deletions); err != nil {
			return nil, err
		}
	}
	res.Observations = obs
	res.PipelineStats = pipeline.Stats()
	if journaled {
		if err := jnl.Close(); err != nil {
			return nil, fmt.Errorf("sim: final journal flush: %w", err)
		}
	}
	return res, nil
}
