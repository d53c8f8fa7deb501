package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dropzero/internal/epp"
	"dropzero/internal/feed"
	"dropzero/internal/journal"
	"dropzero/internal/loadgen"
	"dropzero/internal/registry"
	"dropzero/internal/simtime"
)

const (
	releaseRate = 100                   // releases per second, open loop
	preShotLead = 30 * time.Millisecond // the Loopia first shot: this early, expected 2302
	stormLeadIn = 100 * time.Millisecond
	// stormWindow is the run's window: 200 releases, the fewest with ten
	// samples beyond their p95.
	stormWindow = 2 * releaseRate
	// maxLagP95 and minAchieved are the validity gate: past them the
	// generator, not the program, set the numbers.
	maxLagP95   = time.Millisecond
	minAchieved = 0.99
)

// nameState is one contested name's slot: preallocated, written by the
// session workers and the subscribers, read after the run.
type nameState struct {
	due      time.Time
	acks     atomic.Int32   // 1000 responses; exactly one is correct
	bad      atomic.Int32   // unexpected codes and transport errors
	winner   atomic.Int32   // accreditation of the first 1000
	ackAt    atomic.Int64   // ns after due
	feedAt   []atomic.Int64 // per subscriber, ns after the run's epoch
	applyErr error
}

// shot is one create handed to a session worker.
type shot struct {
	idx int
	pre bool
	enq time.Time
}

// runDropStorm is the headline workload: every release is applied at its due
// instant and raced by every session, over the full node.
func runDropStorm(o options) (*result, error) {
	r := newResult("drop_storm", o.traced())
	contested := releaseRate * o.size.seconds
	cfg := nodeConfig{seed: o.seed, population: o.size.population, contested: contested, sessions: o.clients}

	var (
		n     *node
		st    []nameState
		epoch time.Time // feedAt is relative to it: subscribers run before the due instants exist
	)
	setup, err := medianSetup(o.size.setups, func(last bool) (func() error, error) {
		if last {
			cfg.rec = o.rec
		}
		nd, err := bootNode(cfg)
		if err != nil {
			return nil, err
		}
		states := make([]nameState, contested)
		idxOf := make(map[string]int, contested)
		t0 := time.Now()
		for i, name := range nd.contested {
			idxOf[name] = i
			states[i].feedAt = make([]atomic.Int64, o.clients)
		}
		for k := 0; k < o.clients; k++ {
			k := k
			err := nd.subscribe(func(op feed.Op, at time.Time) {
				if i, ok := idxOf[op.Name]; ok && op.Kind == feed.OpRereg {
					states[i].feedAt[k].CompareAndSwap(0, int64(at.Sub(t0)))
				}
			})
			if err != nil {
				return nil, errors.Join(err, nd.close())
			}
		}
		n, st, epoch = nd, states, t0
		return nd.close, nil
	})
	if err != nil {
		return nil, err
	}
	defer func() {
		if n != nil {
			n.close()
		}
	}()
	r.set("setup_s", setup.Seconds())

	// The seed drives the registry's own schedule; the harness keeps its
	// order and ranks and replaces the instants with the open-loop cadence.
	runner := registry.NewDropRunner(n.store, registry.DropConfig{})
	sched := runner.Schedule(simtime.DayOf(n.clock.Now()), rand.New(rand.NewSource(o.seed)))
	if len(sched) != contested {
		return nil, fmt.Errorf("scheduled %d deletions, want %d", len(sched), contested)
	}

	var (
		lag, sessionWait, createWin, createLose, dropApply loadgen.Hist
		releases, workers                                  sync.WaitGroup
		preShotWins                                        atomic.Int64
	)
	queues := make([]chan shot, len(n.sessions))
	for w, sess := range n.sessions {
		// Sized to the number of sends (a pre-shot and a shot per name), so
		// neither the dispatcher nor a release ever blocks on a busy session.
		queues[w] = make(chan shot, 2*contested)
		workers.Add(1)
		go func(sess session, q <-chan shot) {
			defer workers.Done()
			for s := range q {
				name, ns := sched[s.idx].Name, &st[s.idx]
				t0 := time.Now()
				_, err := sess.cli.Create(name, 1)
				t1 := time.Now()
				switch {
				case err == nil:
					// A pre-shot that a stall held back past the release wins
					// like any other create: the registrar holds the name.
					if ns.acks.Add(1) == 1 {
						ns.winner.Store(int32(sess.accred))
						ns.ackAt.Store(int64(t1.Sub(ns.due)))
					}
					if s.pre {
						preShotWins.Add(1)
					}
					createWin.Record(t1.Sub(t0))
					sessionWait.Record(t0.Sub(s.enq))
					o.rec.add("epp.session_wait", name, s.enq, t0)
					o.rec.add("epp.create", name, t0, t1)
					o.rec.add("release", name, ns.due, t1)
				case !epp.IsCode(err, epp.CodeObjectExists):
					ns.bad.Add(1)
				case !s.pre:
					createLose.Record(t1.Sub(t0))
					sessionWait.Record(t0.Sub(s.enq))
				}
			}
		}(sess, queues[w])
	}
	release := func(i int) {
		defer releases.Done()
		t0 := time.Now()
		_, err := runner.Apply(sched[i])
		t1 := time.Now()
		st[i].applyErr = err
		dropApply.Record(t1.Sub(t0))
		o.rec.add("loadgen.lag", sched[i].Name, st[i].due, t0)
		o.rec.add("registry.drop_apply", sched[i].Name, t0, t1)
		for _, q := range queues {
			q <- shot{idx: i, enq: t1}
		}
	}

	// One dispatcher walks the schedule; work is spawned only once it is due.
	before := n.counters()
	start := time.Now().Add(stormLeadIn)
	interval := time.Second / releaseRate
	for i := range st {
		st[i].due = start.Add(time.Duration(i) * interval)
	}
	fire := func(at time.Time) {
		sleepUntil(at)
		lag.Record(time.Since(at))
	}
	// preShotLead is a whole number of slots, so slot i carries name i's
	// pre-shot and the release of the name that became due leadSlots earlier.
	leadSlots := int(preShotLead / interval)
	for i := 0; i < contested+leadSlots; i++ {
		if i < contested {
			fire(st[i].due.Add(-preShotLead))
			for _, q := range queues {
				q <- shot{idx: i, pre: true, enq: time.Now()}
			}
		}
		if rel := i - leadSlots; rel >= 0 {
			fire(st[rel].due)
			releases.Add(1)
			go release(rel)
		}
		// The work just made runnable sits on this goroutine's processor,
		// which is about to block in nanosleep; yield so it starts now and
		// not when the runtime notices the sleeping processor.
		runtime.Gosched()
	}
	releases.Wait()
	for _, q := range queues {
		close(q)
	}
	workers.Wait()
	lastAck := time.Now()
	n.hub.Quiesce()
	hubCursor := n.hub.Cursor()
	caughtUp := waitFor(5*time.Second, "subscribers to reach the hub cursor", func() bool {
		for _, s := range n.subs {
			if s.cursor.Load() < hubCursor {
				return false
			}
		}
		return true
	})
	after := n.counters()
	r.set("live_heap_mb", float64(liveHeap())/(1<<20))

	acks := make([]time.Duration, 0, contested)
	feeds := make([]time.Duration, 0, contested)
	for i := range st {
		if st[i].acks.Load() > 0 {
			acks = append(acks, time.Duration(st[i].ackAt.Load()))
		}
		var seen []time.Duration
		for k := range st[i].feedAt {
			if v := st[i].feedAt[k].Load(); v != 0 {
				seen = append(seen, time.Duration(v)-st[i].due.Sub(epoch))
			}
		}
		if len(seen) == len(n.subs) {
			delivered := medianDuration(seen)
			feeds = append(feeds, delivered)
			// Delivery overlaps the ack path without causing any of it, so
			// it gets an ID of its own and stays out of the release's tree.
			o.rec.add("feed.deliver", sched[i].Name+"/feed", st[i].due, st[i].due.Add(delivered))
		}
	}
	// Windows follow the schedule: names are due in index order. A trailing
	// window short of stormWindow names is left out unless it is the only one.
	var windows []window
	tailP := ""
	for lo := 0; lo < contested; lo += stormWindow {
		hi := min(lo+stormWindow, contested)
		if hi-lo < stormWindow && len(windows) > 0 {
			break
		}
		var in []time.Duration
		for i := lo; i < hi; i++ {
			if st[i].acks.Load() > 0 {
				in = append(in, time.Duration(st[i].ackAt.Load()))
			}
		}
		sortDurations(in)
		tailV, p := tail(in)
		tailP = p
		windows = append(windows, window{p50: percentile(in, 50), tail: tailV})
	}
	run := overWindows(windows)
	sortDurations(acks)
	sortDurations(feeds)
	r.set("op.p50_ms", ms(run.p50))
	r.set("op.tail_ms", ms(run.tail))
	elapsed := lastAck.Sub(st[0].due) + interval
	r.set("op.per_s", ratio(float64(len(acks)), elapsed.Seconds()))
	r.infof("release_to_ack: median over %d windows of %d releases of each window's p50=%v and %s=%v", len(windows), stormWindow, run.p50, tailP, run.tail)
	r.infof("release_to_ack over the whole run: %d samples, p50=%v p95=%v p99=%v max=%v", len(acks),
		percentile(acks, 50), percentile(acks, 95), percentile(acks, 99), percentile(acks, 100))
	if n := preShotWins.Load(); n > 0 {
		r.infof("%d names went to a pre-shot that a stall delayed past its release", n)
	}
	r.infof("release_to_feed: %d samples (median over %d subscribers per name), p50=%v p95=%v p99=%v", len(feeds), len(n.subs),
		percentile(feeds, 50), percentile(feeds, 95), percentile(feeds, 99))

	achieved := ratio(float64(len(acks))/elapsed.Seconds(), releaseRate)
	r.set("loadgen.lag_p95_us", us(lag.Percentile(95)))
	r.set("loadgen.lag_max_us", us(lag.Percentile(100)))
	r.set("loadgen.achieved_ratio", achieved)
	if !o.smoke {
		if lag.Percentile(95) > maxLagP95 {
			r.invalid = append(r.invalid, fmt.Sprintf("generator lag p95 %v exceeds %v", lag.Percentile(95), maxLagP95))
		}
		if achieved < minAchieved {
			r.invalid = append(r.invalid, fmt.Sprintf("achieved %.4f of the offered rate, below %.2f", achieved, minAchieved))
		}
	}
	r.set("epp.create_win_p50_us", us(createWin.Percentile(50)))
	r.set("epp.create_lose_p50_us", us(createLose.Percentile(50)))
	r.set("epp.session_wait_p50_us", us(sessionWait.Percentile(50)))
	r.set("registry.drop_apply_p50_us", us(dropApply.Percentile(50)))
	r.set("feed.release_to_feed_p50_us", us(percentile(feeds, 50)))
	r.set("feed.release_to_feed_p95_us", us(percentile(feeds, 95)))
	n.setCounterMetrics(r, before, after)
	setTracedJournalMetrics(r, o.rec)

	r.attempted = contested
	if caughtUp != nil {
		r.problemf("%v", caughtUp)
	}
	for k, s := range n.subs {
		if c := s.cursor.Load(); c != hubCursor {
			r.problemf("subscriber %d ended at cursor %d, hub at %d", k, c, hubCursor)
		}
		if x := s.resets.Load(); x > 0 {
			r.problemf("subscriber %d lost its place %d times", k, x)
		}
	}
	recovered, err := recoverCrashCopy(n)
	if err != nil {
		r.problemf("crash recovery: %v", err)
	}
	for i := range st {
		name := sched[i].Name
		why := ""
		switch winner := int(st[i].winner.Load()); {
		case st[i].applyErr != nil:
			why = "drop failed: " + st[i].applyErr.Error()
		case st[i].bad.Load() > 0:
			why = fmt.Sprintf("%d unexpected codes or transport errors", st[i].bad.Load())
		case st[i].acks.Load() == 0:
			why = "unclaimed"
		case st[i].acks.Load() > 1:
			why = fmt.Sprintf("%d acks", st[i].acks.Load())
		case !heldBy(n.store, name, winner):
			why = "lost ack: not held by the winner on the primary"
		case !heldBy(n.fstore, name, winner):
			why = "not held by the winner on the follower"
		case recovered != nil && !heldBy(recovered, name, winner):
			why = "acked winner missing after crash recovery at DurableSeq"
		}
		if why != "" {
			r.failed++
			if r.failed <= 5 {
				r.problemf("%s: %s", name, why)
			}
		}
	}
	if len(feeds) != contested {
		r.problemf("%d of %d names reached every subscriber", len(feeds), contested)
	}

	if o.rec != nil {
		if err := runStormProbes(r, o); err != nil {
			return nil, err
		}
	}
	err = n.close()
	n = nil
	return r, err
}

func heldBy(store *registry.Store, name string, accred int) bool {
	d, err := store.Get(name)
	return err == nil && d.RegistrarID == accred
}

// recoverCrashCopy rebuilds a store from what a kill -9 at the journal's
// durable horizon would have left on disk.
func recoverCrashCopy(n *node) (*registry.Store, error) {
	dst, err := os.MkdirTemp("", "dropbench-crash-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dst)
	if err := journal.CrashCopy(filepath.Join(n.tmp, "primary"), dst, n.jnl.DurableSeq(), 0); err != nil {
		return nil, err
	}
	store := registry.NewStoreWithShards(n.clock, 0)
	if _, _, err := journal.Replay(store, dst); err != nil {
		return nil, err
	}
	return store, nil
}
