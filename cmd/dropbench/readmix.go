package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dropzero/internal/feed"
	"dropzero/internal/loadgen"
	"dropzero/internal/rdap"
	"dropzero/internal/simtime"
	"dropzero/internal/whois"
)

const (
	writeRate    = 20          // EPP mutations per second beside the reads, open loop
	zipfS        = 1.1         // name popularity: hot set far below RDAP's cache, working set far above
	drawTable    = 1 << 20     // pre-drawn Zipf ranks; requests index it, so workers share no RNG
	mixChunk     = 2000        // requests per RunMix call; a multiple of the weight sum
	mixWindow    = time.Second // the run's window: the RunMix calls of about this long
	rdapCheckGap = 64          // every n-th RDAP body is checked against the store
	spanGap      = 16          // traced run: every n-th read gets a span
)

// runReadMix is the reads-beside-writes workload: a closed loop of read
// workers over the four read surfaces while one EPP session keeps mutating,
// so the generation caches flush about writeRate times a second.
func runReadMix(o options) (*result, error) {
	r := newResult("read_mix", o.traced())
	cfg := nodeConfig{seed: o.seed, population: o.size.population, sessions: 1}
	var n *node
	setup, err := medianSetup(o.size.setups, func(last bool) (func() error, error) {
		if last {
			cfg.rec = o.rec
		}
		nd, err := bootNode(cfg)
		if err != nil {
			return nil, err
		}
		n = nd
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

	// Inputs: the seed fixes the popularity ranking of the names, and with
	// it every request the mix will make.
	rng := rand.New(rand.NewSource(o.seed + 1))
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(n.names)-1))
	draws := make([]uint32, drawTable)
	for i := range draws {
		draws[i] = uint32(zipf.Uint64())
	}
	nameAt := func(i int) string { return n.names[draws[i%drawTable]] }

	workers := max(1, o.clients-1)
	rdapc, err := rdap.NewClient(n.rdapURL, n.httpc)
	if err != nil {
		return nil, err
	}
	whoisc := &whois.Client{Addr: n.whoisAddr}
	defer whoisc.Close()
	listURL := n.scopeURL + "/pendingdelete?date=" + simtime.DayOf(n.clock.Now()).String()
	// One delta mirror per worker, each following the feed from its own
	// cursor; a worker borrows one per request.
	mirrors := make(chan *feed.Mirror, workers)
	for i := 0; i < workers; i++ {
		m := feed.NewMirror()
		if _, err := feed.FetchFull(context.Background(), n.httpc, n.scopeURL, m); err != nil {
			return nil, err
		}
		mirrors <- m
	}

	var (
		all                           = new(loadgen.Hist) // the current window's; swapped between RunMix calls
		whole                         loadgen.Hist
		rdapH, whoisH, listH, deltasH loadgen.Hist
		checked, mismatched, base     atomic.Int64
	)
	timed := func(name string, h *loadgen.Hist, fn func(i int) error) loadgen.MixItem {
		return loadgen.MixItem{Name: name, Fn: func(i int) error {
			i += int(base.Load())
			t0 := time.Now()
			err := fn(i)
			t1 := time.Now()
			h.Record(t1.Sub(t0))
			all.Record(t1.Sub(t0))
			whole.Record(t1.Sub(t0))
			if i%spanGap == 0 {
				o.rec.add(name, strconv.Itoa(i), t0, t1)
			}
			return err
		}}
	}
	items := []loadgen.MixItem{
		timed("rdap.get", &rdapH, func(i int) error {
			name := nameAt(i)
			dr, err := rdapc.Domain(context.Background(), name)
			if err != nil {
				return err
			}
			if i%rdapCheckGap == 0 {
				checked.Add(1)
				if d, err := n.store.Get(name); err != nil || !namesSponsor(dr, d.RegistrarID) {
					mismatched.Add(1)
					return fmt.Errorf("rdap %s: body does not name the store's sponsor", name)
				}
			}
			return nil
		}),
		timed("whois.query", &whoisH, func(i int) error {
			name := nameAt(i)
			d, err := whoisc.Lookup(name)
			if err == nil && d.Name != name {
				err = fmt.Errorf("whois %s: answered for %s", name, d.Name)
			}
			return err
		}),
		timed("dropscope.list", &listH, func(i int) error { return getBody(n.httpc, listURL) }),
		timed("feed.deltas", &deltasH, func(i int) error {
			m := <-mirrors
			_, err := feed.SyncDeltas(context.Background(), n.httpc, n.scopeURL, m)
			mirrors <- m
			return err
		}),
	}
	// 50 % RDAP, 20 % WHOIS, 15 % five-day list, 15 % deltas.
	for i, weight := range []int{10, 4, 3, 3} {
		items[i].Weight = weight
	}

	// The writer: one dispatcher, one session, alternating an update of a
	// name the session sponsors with the create of a fresh one.
	var (
		writeLag, writeLat loadgen.Hist
		writeErrs          atomic.Int64
		lastWrite          atomic.Int64 // completion of the latest write, ns after start
		writes             sync.WaitGroup
	)
	writeOps := writeRate * o.size.seconds
	sess := n.sessions[0]
	var start time.Time
	write := func(k int, due time.Time) {
		defer writes.Done()
		var name string
		var err error
		t0 := time.Now()
		if k%2 == 0 {
			name = n.owned[(k/2)%len(n.owned)]
			err = sess.cli.Update(name)
		} else {
			name = "fresh" + strconv.FormatInt(o.seed, 10) + "x" + strconv.Itoa(k) + ".com"
			_, err = sess.cli.Create(name, 1)
		}
		t1 := time.Now()
		writeLat.Record(t1.Sub(due))
		for done := int64(t1.Sub(start)); ; {
			if cur := lastWrite.Load(); done <= cur || lastWrite.CompareAndSwap(cur, done) {
				break
			}
		}
		o.rec.add("epp.write", name, t0, t1)
		if err != nil {
			writeErrs.Add(1)
		}
	}

	before := n.counters()
	start = time.Now()
	deadline := start.Add(time.Duration(o.size.seconds) * time.Second)
	writes.Add(1)
	go func() {
		defer writes.Done()
		for k := 0; k < writeOps; k++ {
			due := start.Add(time.Duration(k) * time.Second / writeRate)
			sleepUntil(due)
			writeLag.Record(time.Since(due))
			writes.Add(1)
			go write(k, due)
			runtime.Gosched() // start it before this goroutine blocks in nanosleep
		}
	}()
	var (
		reads, readErrs uint64
		windows         []window
		inWindow        uint64
		windowStart     = start
	)
	for time.Now().Before(deadline) {
		res, err := loadgen.RunMix(workers, mixChunk, items)
		if err != nil {
			return nil, err
		}
		base.Add(mixChunk)
		reads += res.Combined.Requests
		readErrs += res.Combined.Errors
		inWindow += res.Combined.Requests
		if now := time.Now(); now.Sub(windowStart) >= mixWindow {
			windows = append(windows, window{all.Percentile(50), all.Percentile(95), float64(inWindow) / now.Sub(windowStart).Seconds()})
			all, inWindow, windowStart = new(loadgen.Hist), 0, now
		}
	}
	elapsed := time.Since(start)
	writes.Wait()
	writeElapsed := time.Duration(lastWrite.Load()) + time.Second/writeRate
	n.hub.Quiesce()
	after := n.counters()
	r.set("live_heap_mb", float64(liveHeap())/(1<<20))

	if len(windows) == 0 { // a run shorter than one window
		windows = append(windows, window{whole.Percentile(50), whole.Percentile(95), float64(reads) / elapsed.Seconds()})
	}
	run := overWindows(windows)
	r.set("op.p50_ms", ms(run.p50))
	r.set("op.tail_ms", ms(run.tail))
	r.set("op.per_s", run.rate)
	r.infof("reads: median over %d windows of %v of each window's p50=%v, p95=%v and rate=%.0f/s", len(windows), mixWindow, run.p50, run.tail, run.rate)
	r.infof("reads over the whole run: %d in %v over %d workers (closed loop), p50=%v p95=%v p99=%v", reads, elapsed.Round(time.Millisecond),
		workers, whole.Percentile(50), whole.Percentile(95), whole.Percentile(99))
	r.infof("writes: %d at %d/s (open loop), ack p50=%v p95=%v; %d sampled RDAP bodies checked", writeOps, writeRate,
		writeLat.Percentile(50), writeLat.Percentile(95), checked.Load())

	achieved := ratio(float64(writeOps)/writeElapsed.Seconds(), writeRate)
	r.set("loadgen.lag_p95_us", us(writeLag.Percentile(95)))
	r.set("loadgen.lag_max_us", us(writeLag.Percentile(100)))
	r.set("loadgen.achieved_ratio", achieved)
	// The closed-loop readers keep every CPU busy by design, so the writer's
	// dispatcher queues behind them; its lateness enters no read metric and is
	// reported, not gated. What must hold is that the flushes happened.
	if !o.smoke && achieved < minAchieved {
		r.invalid = append(r.invalid, fmt.Sprintf("writer achieved %.4f of the offered rate, below %.2f", achieved, minAchieved))
	}
	r.set("epp.write_p50_us", us(writeLat.Percentile(50)))
	r.set("rdap.get_p50_us", us(rdapH.Percentile(50)))
	r.set("whois.query_p50_us", us(whoisH.Percentile(50)))
	r.set("dropscope.list_p50_us", us(listH.Percentile(50)))
	r.set("feed.deltas_p50_us", us(deltasH.Percentile(50)))
	n.setCounterMetrics(r, before, after)
	setTracedJournalMetrics(r, o.rec)

	r.attempted = int(reads) + writeOps
	r.failed = int(readErrs) + int(writeErrs.Load())
	if readErrs > 0 || writeErrs.Load() > 0 {
		r.problemf("%d failed reads (%d sponsor mismatches), %d failed writes", readErrs, mismatched.Load(), writeErrs.Load())
	}
	if checked.Load() == 0 {
		r.problemf("no RDAP body was checked")
	}
	if got, want := after.seq-before.seq, uint64(writeOps); got != want {
		r.problemf("journal took %d commits, the writer made %d mutations", got, want)
	}

	if o.rec != nil {
		if err := runReadProbes(r, n); err != nil {
			return nil, err
		}
	}
	err = n.close()
	n = nil
	return r, err
}

// namesSponsor reports whether the RDAP body's registrar entity carries id.
func namesSponsor(dr *rdap.DomainResponse, id int) bool {
	want := strconv.Itoa(id)
	for _, e := range dr.Entities {
		for _, p := range e.PublicIDs {
			if p.Identifier == want {
				return true
			}
		}
	}
	return false
}

// getBody GETs url and reads the whole body; a status other than 200, or a
// body shorter than its Content-Length, is an error.
func getBody(hc *http.Client, url string) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	n, err := io.Copy(io.Discard, resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	if resp.ContentLength >= 0 && n != resp.ContentLength {
		return fmt.Errorf("GET %s: %d of %d bytes", url, n, resp.ContentLength)
	}
	return nil
}
