package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"time"

	"dropzero/internal/dropscope"
	"dropzero/internal/epp"
	"dropzero/internal/journal"
	"dropzero/internal/model"
	"dropzero/internal/names"
	"dropzero/internal/rdap"
	"dropzero/internal/registrars"
	"dropzero/internal/registry"
	"dropzero/internal/simtime"
	"dropzero/internal/whois"
)

// Probes are single-threaded direct calls into one layer's public API with
// the workload's kind of input. They run in the traced run only, after the
// measured phase, and give each layer's cost in isolation — the figure a
// layer's own Benchmark* used to be the record for.

// probeOps is the loop length of the in-memory probes; smoke runs a tenth.
func probeOps(o options) int {
	if o.smoke {
		return 2_000
	}
	return 20_000
}

// runStormProbes measures the drop_storm layers alone: the EPP frame codec
// and limiter, the registry's purge and create with no journal, and this
// host's sync-commit floor.
func runStormProbes(r *result, o options) error {
	clock := simtime.RealClock{}
	ops := probeOps(o)

	// One request/response exchange through the frame codec over a buffer.
	var buf bytes.Buffer
	req := epp.Request{Cmd: epp.CmdCreate, Name: "contested-probe-name.com", Years: 1}
	resp := epp.Response{Code: epp.CodeOK, Msg: "command completed successfully", ServerTime: clock.Now(),
		Domain: &epp.DomainInfo{ID: 1, Name: req.Name, Registrar: 1000, Created: clock.Now(), Updated: clock.Now(), Expiry: clock.Now(), Status: "active"}}
	var gotReq epp.Request
	var gotResp epp.Response
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		buf.Reset()
		if err := epp.WriteFrame(&buf, &req); err != nil {
			return err
		}
		if err := epp.ReadFrame(&buf, &gotReq); err != nil {
			return err
		}
		if err := epp.WriteFrame(&buf, &resp); err != nil {
			return err
		}
		if err := epp.ReadFrame(&buf, &gotResp); err != nil {
			return err
		}
	}
	r.set("epp.frame_ns", float64(time.Since(t0))/float64(ops))

	lim := epp.NewLimiter(clock, 1e9, 1e9)
	t0 = time.Now()
	for i := 0; i < ops; i++ {
		if !lim.Allow(1000 + i%o.clients) {
			return fmt.Errorf("limiter probe: refused")
		}
	}
	r.set("epp.limiter_ns", float64(time.Since(t0))/float64(ops))

	// Purge then re-create ops pendingDelete names, memory only.
	rng := rand.New(rand.NewSource(o.seed))
	dir := registrars.BuildDirectory(rng)
	store := registry.NewStoreWithShards(clock, 0)
	for _, reg := range dir.Registrars() {
		store.AddRegistrar(reg)
	}
	gen := names.NewGenerator(rng)
	sponsor := dir.Accreditations(registrars.SvcOther)[0]
	today := simtime.DayOf(clock.Now())
	for i := 0; i < ops; i++ {
		updated := today.AddDays(-35).At(6, 0, 0).Add(time.Duration(i) * time.Second)
		name := gen.Next().Label + strconv.Itoa(i) + ".com"
		if _, err := store.SeedAt(name, sponsor, updated.AddDate(-2, 0, 0), updated, updated, model.StatusPendingDelete, today); err != nil {
			return err
		}
	}
	runner := registry.NewDropRunner(store, registry.DropConfig{})
	sched := runner.Schedule(today, rng)
	t0 = time.Now()
	for _, s := range sched {
		if _, err := runner.Apply(s); err != nil {
			return err
		}
	}
	r.set("registry.purge_ns", float64(time.Since(t0))/float64(len(sched)))
	catcher := dir.Accreditations(registrars.SvcDropCatch)[0]
	t0 = time.Now()
	for _, s := range sched {
		if _, err := store.Create(s.Name, catcher, 1); err != nil {
			return err
		}
	}
	r.set("registry.create_ns", float64(time.Since(t0))/float64(len(sched)))

	commit, err := syncCommitProbe()
	if err != nil {
		return err
	}
	r.set("journal.sync_commit_us", us(commit))
	return nil
}

// syncCommitProbe is a stand-alone ModeSync append-and-wait, one at a time:
// this host's fsync floor, and the environment stamp of a baseline.
func syncCommitProbe() (time.Duration, error) {
	dir, err := os.MkdirTemp("", "dropbench-commit-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	store := registry.NewStoreWithShards(simtime.RealClock{}, 0)
	jnl, _, err := journal.Open(store, journal.Options{Dir: dir, Mode: journal.ModeSync})
	if err != nil {
		return 0, err
	}
	defer jnl.Close()
	const commits = 300
	took := make([]time.Duration, commits)
	for i := range took {
		t0 := time.Now()
		wait := jnl.Append(registry.Mutation{Kind: registry.MutTouch, Name: "probe" + strconv.Itoa(i) + ".com", Updated: t0})
		if err := wait(); err != nil {
			return 0, err
		}
		took[i] = time.Since(t0)
	}
	return medianDuration(took), nil
}

// runReadProbes serves the read surfaces through their handlers with fresh
// server instances over the node's store: a first pass over a set of names is
// all cold renders, a second pass all warm.
func runReadProbes(r *result, n *node) error {
	const lookups = 2000
	probeNames := n.names[:min(lookups, len(n.names))]

	rdapH := rdap.NewServer(n.store, rdap.ServerConfig{}).Handler()
	get := func(h http.Handler, url string) error {
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, httptest.NewRequest(http.MethodGet, url, nil))
		if rw.Code != http.StatusOK {
			return fmt.Errorf("probe GET %s: %d", url, rw.Code)
		}
		return nil
	}
	pass := func(fn func(name string) error) (time.Duration, error) {
		t0 := time.Now()
		for _, name := range probeNames {
			if err := fn(name); err != nil {
				return 0, err
			}
		}
		return time.Since(t0) / time.Duration(len(probeNames)), nil
	}
	rdapGet := func(name string) error { return get(rdapH, "/domain/"+name) }
	cold, err := pass(rdapGet)
	if err != nil {
		return err
	}
	warm, err := pass(rdapGet)
	if err != nil {
		return err
	}
	r.set("rdap.cold_us", us(cold))
	r.set("rdap.warm_us", us(warm))

	whoisSrv := whois.NewServer(n.store)
	whoisQuery := func(name string) error {
		client, server := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			whoisSrv.ServeConn(server)
			server.Close()
		}()
		_, err := io.WriteString(client, name+"\r\n")
		if err == nil {
			_, err = io.Copy(io.Discard, client)
		}
		client.Close()
		<-done
		return err
	}
	if cold, err = pass(whoisQuery); err != nil {
		return err
	}
	if warm, err = pass(whoisQuery); err != nil {
		return err
	}
	r.set("whois.cold_us", us(cold))
	r.set("whois.warm_us", us(warm))

	// The list is one cache entry per server, so every cold sample needs its
	// own server.
	url := "/pendingdelete?date=" + simtime.DayOf(n.clock.Now()).String()
	var colds, warms []time.Duration
	for i := 0; i < 10; i++ {
		h := dropscope.NewServer(n.store).Handler()
		t0 := time.Now()
		if err := get(h, url); err != nil {
			return err
		}
		t1 := time.Now()
		if err := get(h, url); err != nil {
			return err
		}
		colds, warms = append(colds, t1.Sub(t0)), append(warms, time.Since(t1))
	}
	r.set("dropscope.cold_us", us(meanDuration(colds)))
	r.set("dropscope.warm_us", us(meanDuration(warms)))
	return nil
}

// runRegistrySweepProbes times the bulk sweeps the study leans on, over the
// recovery workload's large store: one lifecycle tick and one queue build.
func runRegistrySweepProbes(r *result, store *registry.Store) {
	now := recoveryDay.At(12, 0, 0)
	lc := registry.NewLifecycle(store, registry.DefaultLifecycleConfig())
	t0 := time.Now()
	moved := lc.Tick(now)
	r.set("registry.tick_ms", ms(time.Since(t0)))
	runner := registry.NewDropRunner(store, registry.DropConfig{})
	day := simtime.DayOf(now).AddDays(registry.DefaultLifecycleConfig().PendingDeleteDays)
	t0 = time.Now()
	queue := runner.BuildQueue(day)
	r.set("registry.build_queue_ms", ms(time.Since(t0)))
	r.infof("probes: lifecycle tick moved %d domains, the queue for %s holds %d", moved, day, len(queue))
}
