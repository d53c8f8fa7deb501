// Command droprepl is the replication smoke test: it wires a semi-sync
// primary to two TCP replicas, proves every read surface renders
// byte-identical on all three, then races a Drop against a create burst,
// kills the primary mid-storm, promotes the most-advanced replica and
// audits that no acknowledged mutation was lost.
//
//	droprepl -domains 300 -writers 4 -creates 40
//
// The run exits non-zero if any surface diverges, any acked create or
// catch is missing after failover, any acked purge resurfaces, or the
// promoted replica refuses writes. CI uses this as the failover smoke.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"dropzero/internal/dropscope"
	"dropzero/internal/inproc"
	"dropzero/internal/journal"
	"dropzero/internal/model"
	"dropzero/internal/rdap"
	"dropzero/internal/registry"
	"dropzero/internal/repl"
	"dropzero/internal/simtime"
	"dropzero/internal/whois"
)

const (
	seedRegistrar  = 9001
	catchRegistrar = 9002
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("droprepl: ")

	domains := flag.Int("domains", 300, "seeded domains on the primary")
	writers := flag.Int("writers", 4, "concurrent create writers during the race")
	creates := flag.Int("creates", 40, "fresh creates attempted per writer")
	verbose := flag.Bool("v", false, "log per-phase detail")
	flag.Parse()

	if err := run(*domains, *writers, *creates, *verbose); err != nil {
		fmt.Fprintf(os.Stderr, "droprepl: FAIL\n  %v\n", err)
		os.Exit(1)
	}
}

func run(domains, writers, creates int, verbose bool) error {
	day := simtime.Day{Year: 2018, Month: time.March, Dom: 8}
	clock := simtime.NewSimClock(day.At(18, 0, 0))
	base, err := os.MkdirTemp("", "droprepl-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(base)

	// Primary: sync journal, seeded population, snapshot so the replicas
	// bootstrap through the snapshot path, then a post-snapshot tail.
	store := registry.NewStore(clock)
	jnl, _, err := journal.Open(store, journal.Options{Dir: base + "/primary", Mode: journal.ModeSync})
	if err != nil {
		return err
	}
	store.SetJournal(jnl)
	store.AddRegistrar(model.Registrar{IANAID: seedRegistrar, Name: "Repl Smoke Seeder"})
	store.AddRegistrar(model.Registrar{IANAID: catchRegistrar, Name: "Repl Smoke Catcher"})
	names := make([]string, 0, domains)
	for i := 0; i < domains; i++ {
		name := fmt.Sprintf("repl-smoke-%04d.com", i)
		at := day.AddDays(-40).At(6, 0, i%60)
		if _, err := store.CreateAt(name, seedRegistrar, 1, at); err != nil {
			return err
		}
		if i%4 == 0 {
			if err := store.MarkPendingDelete(name, at.Add(time.Hour), day); err != nil {
				return err
			}
		}
		names = append(names, name)
	}
	if err := jnl.Snapshot(nil); err != nil {
		return err
	}
	for i := 0; i < 32; i++ {
		if err := store.TouchAt(names[i], seedRegistrar, day.At(18, 30, i%60)); err != nil {
			return err
		}
	}

	src := repl.NewSource(jnl, repl.SourceConfig{SyncFollowers: 1})
	addr, err := src.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	newReplica := func(i int) (*repl.Follower, *registry.Store, error) {
		fstore := registry.NewStore(simtime.NewSimClock(day.At(18, 0, 0)))
		cfg := repl.FollowerConfig{
			Dir:           fmt.Sprintf("%s/replica%d", base, i),
			Addr:          addr.String(),
			ReconnectWait: 50 * time.Millisecond,
		}
		if verbose {
			cfg.Logf = log.Printf
		}
		f, err := repl.NewFollower(fstore, cfg)
		if err != nil {
			return nil, nil, err
		}
		f.Start()
		return f, fstore, nil
	}
	started1 := time.Now()
	f1, fstore1, err := newReplica(1)
	if err != nil {
		return err
	}
	defer f1.Close()
	started2 := time.Now()
	f2, fstore2, err := newReplica(2)
	if err != nil {
		return err
	}
	defer f2.Close()
	replicas := []*repl.Follower{f1, f2}
	rstores := []*registry.Store{fstore1, fstore2}
	// Time-to-first-serve: replica cold start to fully caught up (snapshot
	// bootstrap + batch catch-up) — the window in which a hot spare is not
	// yet one.
	for i, f := range replicas {
		if err := waitApplied(f, jnl.LastSeq()); err != nil {
			return err
		}
		ttfs := time.Since([]time.Time{started1, started2}[i])
		log.Printf("replica %d time-to-first-serve: %v (bootstrapped to seq %d)", i+1, ttfs.Round(time.Millisecond), f.AppliedSeq())
	}
	log.Printf("primary + 2 replicas caught up at seq %d", jnl.LastSeq())

	// Phase 1: every read surface must render byte-identical on all three.
	sample := append([]string{}, names[:8]...)
	sample = append(sample, names[len(names)-4:]...)
	want, err := renderSurfaces(store, sample, day)
	if err != nil {
		return fmt.Errorf("render primary: %w", err)
	}
	for i, rs := range rstores {
		if pg, rg := store.Generation(), rs.Generation(); pg != rg {
			return fmt.Errorf("replica%d generation %d != primary %d", i+1, rg, pg)
		}
		got, err := renderSurfaces(rs, sample, day)
		if err != nil {
			return fmt.Errorf("render replica%d: %w", i+1, err)
		}
		if err := diffSurfaces(want, got); err != nil {
			return fmt.Errorf("replica%d diverges from primary: %w", i+1, err)
		}
	}
	log.Printf("surfaces byte-identical across %d rendered reads (RDAP, WHOIS, dropscope)", len(want))

	// Phase 2: semi-sync — from here on a nil error means the mutation is
	// durable locally AND applied by at least one replica.
	store.SetJournal(&repl.SyncJournal{J: jnl, S: src})

	// Phase 3: race the Drop against a create burst, then kill the primary
	// partway through. Everything acked before the kill must survive.
	runner := registry.NewDropRunner(store, registry.DropConfig{StartHour: 19, BaseRatePerSec: 20})
	sched := runner.Schedule(day, rand.New(rand.NewSource(1)))
	clock.Set(day.At(19, 0, 0))

	var (
		ackMu       sync.Mutex
		ackedNames  []string              // fresh creates + catches acked to a client
		ackedPurges = map[string]uint64{} // name -> purged domain ID
		catchCh     = make(chan string, len(sched))
		kill        = make(chan struct{})
		killOnce    sync.Once
		wg          sync.WaitGroup
	)
	killPrimary := func() { killOnce.Do(func() { close(kill); src.Close() }) }
	killed := func() bool {
		select {
		case <-kill:
			return true
		default:
			return false
		}
	}

	// The Drop: purge on schedule order, feeding each dropped name to the
	// catchers. Triggers the kill a third of the way through.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(catchCh)
		for i, sc := range sched {
			if i == len(sched)/3 {
				killPrimary()
			}
			if killed() {
				return
			}
			ev, err := runner.Apply(sc)
			if err != nil {
				return // unacked: the primary died underneath us
			}
			ackMu.Lock()
			ackedPurges[sc.Name] = ev.DomainID
			ackMu.Unlock()
			catchCh <- sc.Name
			time.Sleep(time.Millisecond)
		}
	}()

	// Catchers: re-register dropped names the instant they fall.
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for name := range catchCh {
				if _, err := store.CreateAt(name, catchRegistrar, 1, clock.Now()); err == nil {
					ackMu.Lock()
					ackedNames = append(ackedNames, name)
					ackMu.Unlock()
				}
			}
		}()
	}

	// Writers: fresh creates, unrelated to the Drop.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < creates; i++ {
				if killed() && w == 0 && i > creates/2 {
					return
				}
				name := fmt.Sprintf("race-w%d-%03d.com", w, i)
				if _, err := store.CreateAt(name, seedRegistrar, 1, clock.Now()); err == nil {
					ackMu.Lock()
					ackedNames = append(ackedNames, name)
					ackMu.Unlock()
				}
				time.Sleep(time.Millisecond)
			}
		}(w)
	}
	wg.Wait()
	killPrimary() // in case the schedule was too short to reach the trigger
	jnl.Close()
	log.Printf("primary killed: %d acked creates, %d acked purges", len(ackedNames), len(ackedPurges))
	if len(ackedNames) == 0 || len(ackedPurges) == 0 {
		return fmt.Errorf("race produced no acked work (creates=%d purges=%d); smoke is vacuous",
			len(ackedNames), len(ackedPurges))
	}

	// Phase 4: promote the most-advanced replica.
	if err := f1.Close(); err != nil {
		return err
	}
	if err := f2.Close(); err != nil {
		return err
	}
	winner, wstore := f1, fstore1
	if f2.AppliedSeq() > f1.AppliedSeq() {
		winner, wstore = f2, fstore2
	}
	log.Printf("promoting replica at seq %d (other at %d)", winner.AppliedSeq(), f1.AppliedSeq()+f2.AppliedSeq()-winner.AppliedSeq())
	pj, err := winner.Promote(journal.Options{Mode: journal.ModeSync})
	if err != nil {
		return fmt.Errorf("promote: %w", err)
	}
	defer pj.Close()

	// Phase 5: audit. Every acked create must exist; every acked purge must
	// be gone (or superseded by a caught re-registration with a new ID).
	var lost []string
	for _, name := range ackedNames {
		if _, err := wstore.Get(name); err != nil {
			lost = append(lost, "create "+name)
		}
	}
	for name, oldID := range ackedPurges {
		if d, err := wstore.Get(name); err == nil && d.ID == oldID {
			lost = append(lost, "purge "+name)
		}
	}
	if len(lost) > 0 {
		sort.Strings(lost)
		if len(lost) > 10 {
			lost = append(lost[:10], fmt.Sprintf("... and %d more", len(lost)-10))
		}
		return fmt.Errorf("acked mutations lost across failover:\n  %v", lost)
	}

	// The promoted replica must accept writes and advance its own journal.
	seqBefore := pj.LastSeq()
	if _, err := wstore.CreateAt("post-failover.com", catchRegistrar, 1, clock.Now()); err != nil {
		return fmt.Errorf("promoted replica rejected a write: %w", err)
	}
	if pj.LastSeq() <= seqBefore {
		return fmt.Errorf("promoted journal did not advance (seq %d)", pj.LastSeq())
	}

	fmt.Printf("PASS: surfaces byte-identical, %d acked creates and %d acked purges survived failover, promoted replica writable\n",
		len(ackedNames), len(ackedPurges))
	return nil
}

// waitApplied polls until the follower has applied seq.
func waitApplied(f *repl.Follower, seq uint64) error {
	deadline := time.Now().Add(15 * time.Second)
	for f.AppliedSeq() < seq {
		if err := f.Err(); err != nil {
			return fmt.Errorf("follower died at seq %d waiting for %d: %w", f.AppliedSeq(), seq, err)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("follower stuck at seq %d waiting for %d", f.AppliedSeq(), seq)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

// surface is one rendered read: status, body bytes and the cache validator.
type surface struct {
	status int
	etag   string
	body   string
}

// renderSurfaces renders RDAP lookups (hits and a miss), the dropscope
// pending-delete list for day, and WHOIS against one store, ETags included.
func renderSurfaces(store *registry.Store, names []string, day simtime.Day) (map[string]surface, error) {
	out := make(map[string]surface)

	rdapClient := inproc.Client(rdap.NewServer(store, rdap.ServerConfig{}).Handler())
	fetch := func(key, url string, client *http.Client) error {
		resp, err := client.Get(url)
		if err != nil {
			return fmt.Errorf("%s: %w", key, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", key, err)
		}
		out[key] = surface{status: resp.StatusCode, etag: resp.Header.Get("ETag"), body: string(body)}
		return nil
	}
	for _, name := range names {
		if err := fetch("rdap/"+name, "http://rdap/domain/"+name, rdapClient); err != nil {
			return nil, err
		}
	}
	if err := fetch("rdap/miss", "http://rdap/domain/never-registered.com", rdapClient); err != nil {
		return nil, err
	}

	scopeClient := inproc.Client(dropscope.NewServer(store).Handler())
	if err := fetch("dropscope", "http://scope/pendingdelete?date="+day.String(), scopeClient); err != nil {
		return nil, err
	}

	wsrv := whois.NewServer(store)
	for _, name := range names {
		reply, err := whoisQuery(wsrv, name)
		if err != nil {
			return nil, fmt.Errorf("whois/%s: %w", name, err)
		}
		out["whois/"+name] = surface{status: 200, body: reply}
	}
	return out, nil
}

// whoisQuery performs one WHOIS exchange over an in-process pipe.
func whoisQuery(srv *whois.Server, name string) (string, error) {
	client, server := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ServeConn(server)
		server.Close()
	}()
	if _, err := io.WriteString(client, name+"\r\n"); err != nil {
		client.Close()
		<-done
		return "", err
	}
	reply, err := io.ReadAll(client)
	client.Close()
	<-done
	return string(reply), err
}

// diffSurfaces reports the first mismatch between two rendered surface sets.
func diffSurfaces(want, got map[string]surface) error {
	if len(want) != len(got) {
		return fmt.Errorf("surface count %d != %d", len(got), len(want))
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		w, g := want[k], got[k]
		if w.status != g.status {
			return fmt.Errorf("%s: status %d != %d", k, g.status, w.status)
		}
		if w.etag != g.etag {
			return fmt.Errorf("%s: etag %q != %q", k, g.etag, w.etag)
		}
		if w.body != g.body {
			return fmt.Errorf("%s: body diverges (%d vs %d bytes)", k, len(g.body), len(w.body))
		}
	}
	return nil
}
