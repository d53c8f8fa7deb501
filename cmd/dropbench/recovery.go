package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"time"

	"dropzero/internal/journal"
	"dropzero/internal/model"
	"dropzero/internal/names"
	"dropzero/internal/registrars"
	"dropzero/internal/registry"
	"dropzero/internal/repl"
	"dropzero/internal/simtime"
)

// recoveryDay is the fixed instant the recovery datadir is built at: the
// workload has no live traffic, so nothing needs the wall clock.
var recoveryDay = simtime.Day{Year: 2018, Month: time.March, Dom: 8}

// datadir is a built recovery input and what the store that wrote it held.
type datadir struct {
	dir        string
	count      int
	generation uint64
	lastSeq    uint64
	// bytesPerDomain is the live-heap cost of the seeded store.
	bytesPerDomain float64
}

// buildDatadir writes a snapshot of size.recDomains domains followed by a WAL
// tail of size.recTail mixed records. The tail is written in ModeAsync and
// then synced: the bytes equal a sync-mode log's, and set-up stays seconds.
func buildDatadir(seed int64, size sizing) (_ *datadir, err error) {
	dd := &datadir{}
	if dd.dir, err = os.MkdirTemp("", "dropbench-recovery-"); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			os.RemoveAll(dd.dir)
		}
	}()
	clock := simtime.NewSimClock(recoveryDay.At(12, 0, 0))
	rng := rand.New(rand.NewSource(seed))
	dir := registrars.BuildDirectory(rng)
	store := registry.NewStoreWithShards(clock, 0)
	jnl, _, err := journal.Open(store, journal.Options{Dir: dd.dir, Mode: journal.ModeAsync})
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := jnl.Close(); err == nil {
			err = cerr
		}
	}()
	for _, r := range dir.Registrars() {
		store.AddRegistrar(r)
	}

	// Seeded detached, like a node's population: it reaches disk as the
	// snapshot. A tenth of the domains sit in redemption with staggered
	// ages, which is what the WAL tail's markPendingDelete and purge records
	// (and the lifecycle probe) act on.
	gen := names.NewGenerator(rng)
	sponsors := dir.Accreditations(registrars.SvcOther)
	now := clock.Now()
	heapBefore := liveHeap()
	seeded := make([]string, size.recDomains)
	owner := make([]int, size.recDomains)
	for i := range seeded {
		seeded[i] = gen.Next().Label + strconv.Itoa(i) + ".com"
		owner[i] = sponsors[rng.Intn(len(sponsors))]
		created := now.AddDate(-1-rng.Intn(5), 0, -rng.Intn(300))
		if i%10 == 9 {
			updated := now.AddDate(0, 0, -rng.Intn(40))
			_, err = store.SeedAt(seeded[i], owner[i], created, updated, updated.AddDate(0, 0, -35), model.StatusRedemption, simtime.Day{})
		} else {
			_, err = store.SeedAt(seeded[i], owner[i], created, created, created.AddDate(1+rng.Intn(6), 0, 0), model.StatusActive, simtime.Day{})
		}
		if err != nil {
			return nil, fmt.Errorf("seed %s: %w", seeded[i], err)
		}
	}
	dd.bytesPerDomain = ratio(float64(liveHeap())-float64(heapBefore), float64(size.recDomains))
	if err := jnl.Snapshot(nil); err != nil {
		return nil, err
	}
	if _, _, ok, err := journal.LatestSnapshotPath(dd.dir); err != nil || !ok {
		return nil, fmt.Errorf("no snapshot written: %v", err)
	}

	// The tail: create / renew / markPendingDelete / purge in equal shares.
	// Every purge takes the name the previous step marked.
	store.SetJournal(jnl)
	runner := registry.NewDropRunner(store, registry.DropConfig{})
	for k := 0; k < size.recTail; k++ {
		i := (k / 4) % (size.recDomains / 10)
		switch k % 4 {
		case 0:
			_, err = store.Create("tail"+strconv.Itoa(k)+".com", sponsors[k%len(sponsors)], 1)
		case 1:
			err = store.Renew(seeded[i*10], owner[i*10], 1)
		case 2:
			err = store.MarkPendingDelete(seeded[i*10+9], now, recoveryDay)
		case 3:
			_, err = runner.Apply(registry.Scheduled{Name: seeded[i*10+9], Time: now, Rank: k / 4})
		}
		if err != nil {
			return nil, fmt.Errorf("tail record %d: %w", k, err)
		}
	}
	store.SetJournal(nil)
	if err := jnl.Sync(); err != nil {
		return nil, err
	}
	dd.count, dd.generation, dd.lastSeq = store.Count(), store.Generation(), jnl.LastSeq()
	return dd, nil
}

// runRecovery measures restart cycles with no traffic: recover the datadir
// into a fresh store, bootstrap a fresh follower from the recovered primary,
// snapshot the quiet store — plus one plain recovery per cycle, so
// journal.Open gets twice the samples.
func runRecovery(o options) (*result, error) {
	r := newResult("recovery", o.traced())
	var dd *datadir
	setup, err := medianSetup(o.size.setups, func(last bool) (func() error, error) {
		d, err := buildDatadir(o.seed, o.size)
		if err != nil {
			return nil, err
		}
		dd = d
		return func() error { return os.RemoveAll(d.dir) }, nil
	})
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dd.dir)
	r.set("setup_s", setup.Seconds())

	var (
		opens, boots, snaps, cycles []time.Duration
		lastRec                     journal.Recovery
		keep                        *restart // the last cycle's stores, held for live_heap_mb
	)
	start := time.Now()
	deadline := start.Add(time.Duration(o.size.seconds) * time.Second)
	// A full run keeps cycling for the run's length; smoke stops at the floor.
	for round := 0; round < o.size.recRounds || (!o.smoke && time.Now().Before(deadline)); round++ {
		keep = nil
		rs, err := restartCycle(dd, round, o.rec)
		if err != nil {
			return nil, err
		}
		keep = rs
		opens = append(opens, rs.opens...)
		boots = append(boots, rs.boot)
		snaps = append(snaps, rs.snap)
		cycles = append(cycles, rs.cycle)
		lastRec = rs.rec
		r.attempted += 4
		for _, p := range rs.problems {
			r.failed++
			r.problemf("cycle %d: %s", round, p)
		}
	}
	r.set("live_heap_mb", float64(liveHeap())/(1<<20))
	runtime.KeepAlive(keep)

	open := medianDuration(opens)
	r.set("op.p50_ms", ms(medianDuration(cycles)))
	r.infof("restart cycle = journal.Open + follower bootstrap + Journal.Snapshot: %d cycles, median %v, max %v",
		len(cycles), medianDuration(cycles), percentile(sortDurations(cycles), 100))
	r.infof("journal.Open: %d samples, median %v, max %v (%d domains + %d WAL records)", len(opens), open,
		percentile(sortDurations(opens), 100), dd.count, lastRec.ReplayedRecords)
	r.infof("bootstrap: %d samples, median %v; snapshot: %d samples, median %v", len(boots), medianDuration(boots), len(snaps), medianDuration(snaps))

	r.set("journal.open_ms", ms(open))
	r.set("journal.snapshot_ms", ms(medianDuration(snaps)))
	r.set("repl.bootstrap_ms", ms(medianDuration(boots)))
	r.set("journal.replay_rps", lastRec.ReplayRPS())
	r.set("journal.snapshot_read_ms", ms(lastRec.Timings.SnapshotRead))
	r.set("journal.snapshot_decode_ms", ms(lastRec.Timings.SnapshotDecode))
	r.set("journal.snapshot_install_ms", ms(lastRec.Timings.SnapshotInstall))
	r.set("journal.replay_ms", ms(lastRec.Timings.Replay))
	r.set("journal.snapshot_bytes_per_domain", ratio(float64(lastRec.SnapshotBytes), float64(o.size.recDomains)))
	r.set("registry.bytes_per_domain", dd.bytesPerDomain)

	if o.rec != nil {
		runRegistrySweepProbes(r, keep.store)
	}
	return r, nil
}

// restart is one cycle's measurements and the stores it ended with.
type restart struct {
	opens      []time.Duration
	boot, snap time.Duration
	cycle      time.Duration // open + bootstrap + snapshot, the gaps between them included
	rec        journal.Recovery
	problems   []string
	store      *registry.Store
	fstore     *registry.Store
}

// restartCycle leaves the datadir as it found it: the journal is opened with
// KeepAll so the snapshot step prunes nothing, and the snapshot it adds is
// removed again.
func restartCycle(dd *datadir, round int, rec *recorder) (_ *restart, err error) {
	rs := &restart{}
	id := strconv.Itoa(round)
	clock := simtime.NewSimClock(recoveryDay.At(12, 0, 0))
	check := func(what string, s *registry.Store) {
		if s.Count() != dd.count || s.Generation() != dd.generation {
			rs.problems = append(rs.problems, fmt.Sprintf("%s: count %d generation %d, the original had %d and %d",
				what, s.Count(), s.Generation(), dd.count, dd.generation))
		}
	}
	open := func(id string) (*registry.Store, *journal.Journal, error) {
		store := registry.NewStoreWithShards(clock, 0)
		t0 := time.Now()
		jnl, got, err := journal.Open(store, journal.Options{Dir: dd.dir, Mode: journal.ModeSync, KeepAll: true})
		if err != nil {
			return nil, nil, err
		}
		t1 := time.Now()
		rs.opens = append(rs.opens, t1.Sub(t0))
		rs.rec = got
		rec.add("journal.open", id, t0, t1)
		// Recovery reports its phases as durations; lay them end to end
		// inside the open span, which they partition up to directory scans.
		at := t0
		for _, ph := range []struct {
			name string
			d    time.Duration
		}{
			{"journal.snapshot_read", got.Timings.SnapshotRead},
			{"journal.snapshot_decode", got.Timings.SnapshotDecode},
			{"journal.snapshot_install", got.Timings.SnapshotInstall},
			{"journal.replay", got.Timings.Replay},
		} {
			rec.add(ph.name, id, at, at.Add(ph.d))
			at = at.Add(ph.d)
		}
		check("journal.Open", store)
		return store, jnl, nil
	}

	// A plain restart first: recover, then discard. It is a second sample of
	// journal.Open, outside the cycle.
	_, jnl, err := open(id + "/plain")
	if err != nil {
		return nil, err
	}
	if err := jnl.Close(); err != nil {
		return nil, err
	}
	// The cycle: recover the primary, then run the follower and the snapshot
	// against it.
	t0 := time.Now()
	rs.store, jnl, err = open(id)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := jnl.Close(); err == nil {
			err = cerr
		}
	}()

	source := repl.NewSource(jnl, repl.SourceConfig{})
	defer source.Close()
	addr, err := source.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	fdir, err := os.MkdirTemp("", "dropbench-follower-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(fdir)
	rs.fstore = registry.NewStoreWithShards(clock, 0)
	t1 := time.Now()
	follower, err := repl.NewFollower(rs.fstore, repl.FollowerConfig{Dir: fdir, Addr: addr.String()})
	if err != nil {
		return nil, err
	}
	follower.Start()
	werr := waitFor(60*time.Second, "follower bootstrap", func() bool {
		return follower.AppliedSeq() == dd.lastSeq || follower.Err() != nil
	})
	t2 := time.Now()
	if err := errors.Join(werr, follower.Err(), follower.Close()); err != nil {
		return nil, err
	}
	rs.boot = t2.Sub(t1)
	rec.add("repl.bootstrap", id, t1, t2)
	check("follower bootstrap", rs.fstore)

	t3 := time.Now()
	if err := jnl.Snapshot(nil); err != nil {
		return nil, err
	}
	t4 := time.Now()
	rs.snap = t4.Sub(t3)
	rs.cycle = t4.Sub(t0)
	rec.add("journal.snapshot", id, t3, t4)
	rec.add("restart", id, t0, t4)
	path, seq, ok, err := journal.LatestSnapshotPath(dd.dir)
	if err != nil {
		return nil, err
	}
	if !ok || seq != dd.lastSeq {
		return nil, fmt.Errorf("snapshot landed at seq %d (found %v), want %d", seq, ok, dd.lastSeq)
	}
	return rs, os.Remove(path)
}
