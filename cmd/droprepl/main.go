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
	"sync/atomic"
	"time"

	"dropzero/internal/dropscope"
	"dropzero/internal/inproc"
	"dropzero/internal/journal"
	"dropzero/internal/model"
	"dropzero/internal/node"
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

	// Primary: semi-sync over a sync journal. Its boot — seeded population,
	// a snapshot so the replicas bootstrap through the snapshot path, then a
	// post-snapshot tail — runs on the bare journal, before the quorum.
	var logf func(string, ...any)
	if verbose {
		logf = log.Printf
	}
	var names []string
	primary, err := node.Start(node.Config{
		Replication: "127.0.0.1:0", DataDir: base + "/primary", Mode: journal.ModeSync, Clock: clock, SyncFollowers: 1, Logf: logf,
		Registrars: []model.Registrar{{IANAID: seedRegistrar, Name: "Repl Smoke Seeder"}, {IANAID: catchRegistrar, Name: "Repl Smoke Catcher"}},
		Boot: func(store *registry.Store, jnl *journal.Journal, _ journal.Recovery) error {
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
			return nil
		},
	})
	if err != nil {
		return err
	}
	defer primary.Close()
	store, jnl := primary.Store, primary.Journal()

	// Two replicas. Time-to-first-serve: replica cold start to fully caught
	// up (snapshot bootstrap + batch catch-up) — the window in which a hot
	// spare is not yet one.
	var replicas []*node.Node
	for i := 1; i <= 2; i++ {
		started := time.Now()
		r, err := node.Start(node.Config{
			ReplicateFrom: primary.Addr("replication"), DataDir: fmt.Sprintf("%s/replica%d", base, i),
			Mode: journal.ModeSync, Clock: simtime.NewSimClock(day.At(18, 0, 0)), Logf: logf,
		})
		if err != nil {
			return err
		}
		defer r.Close()
		replicas = append(replicas, r)
		if err := waitApplied(r.Follower, jnl.LastSeq()); err != nil {
			return err
		}
		log.Printf("replica %d time-to-first-serve: %v (bootstrapped to seq %d)", i, time.Since(started).Round(time.Millisecond), r.Follower.AppliedSeq())
	}
	log.Printf("primary + 2 replicas caught up at seq %d", jnl.LastSeq())

	// Phase 1: every read surface must render byte-identical on all three.
	sample := append(names[:8:8], names[len(names)-4:]...)
	want, err := renderSurfaces(store, sample, day)
	if err != nil {
		return fmt.Errorf("render primary: %w", err)
	}
	for i, r := range replicas {
		if pg, rg := store.Generation(), r.Store.Generation(); pg != rg {
			return fmt.Errorf("replica%d generation %d != primary %d", i+1, rg, pg)
		}
		got, err := renderSurfaces(r.Store, sample, day)
		if err != nil {
			return fmt.Errorf("render replica%d: %w", i+1, err)
		}
		if err := diffSurfaces(want, got); err != nil {
			return fmt.Errorf("replica%d diverges from primary: %w", i+1, err)
		}
	}
	log.Printf("surfaces byte-identical across %d rendered reads (RDAP, WHOIS, dropscope)", len(want))

	// Phase 2: semi-sync — the primary has committed this way since its
	// boot: a nil error means durable locally AND applied by a replica.
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
		killed      atomic.Bool
		wg          sync.WaitGroup
	)
	killPrimary := func() { killed.Store(true); primary.Close() }
	ackCreate := func(name string) {
		ackMu.Lock()
		ackedNames = append(ackedNames, name)
		ackMu.Unlock()
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
			if killed.Load() {
				return
			}
			ev, err := runner.Apply(sc)
			if err != nil {
				return // unacked: the primary died underneath us
			}
			ackMu.Lock()
			ackedPurges[sc.Name] = ev.DomainID()
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
					ackCreate(name)
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
				if killed.Load() && w == 0 && i > creates/2 {
					return
				}
				name := fmt.Sprintf("race-w%d-%03d.com", w, i)
				if _, err := store.CreateAt(name, seedRegistrar, 1, clock.Now()); err == nil {
					ackCreate(name)
				}
				time.Sleep(time.Millisecond)
			}
		}(w)
	}
	wg.Wait()
	killPrimary() // in case the schedule was too short to reach the trigger
	log.Printf("primary killed: %d acked creates, %d acked purges", len(ackedNames), len(ackedPurges))
	if len(ackedNames) == 0 || len(ackedPurges) == 0 {
		return fmt.Errorf("race produced no acked work (creates=%d purges=%d); smoke is vacuous",
			len(ackedNames), len(ackedPurges))
	}

	// Phase 4: promote the most-advanced replica.
	for _, r := range replicas {
		if err := r.Follower.Close(); err != nil {
			return err
		}
	}
	winner, other := replicas[0], replicas[1]
	if other.Follower.AppliedSeq() > winner.Follower.AppliedSeq() {
		winner, other = other, winner
	}
	log.Printf("promoting replica at seq %d (other at %d)", winner.Follower.AppliedSeq(), other.Follower.AppliedSeq())
	if err := winner.Promote(); err != nil {
		return fmt.Errorf("promote: %w", err)
	}
	wstore, pj := winner.Store, winner.Journal()

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
	for _, name := range append(names[:len(names):len(names)], "never-registered.com") {
		if err := fetch("rdap/"+name, "http://rdap/domain/"+name, rdapClient); err != nil {
			return nil, err
		}
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
	defer client.Close()
	go func() {
		srv.ServeConn(server)
		server.Close()
	}()
	if _, err := io.WriteString(client, name+"\r\n"); err != nil {
		return "", err
	}
	reply, err := io.ReadAll(client)
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
		if w, g := want[k], got[k]; w != g {
			return fmt.Errorf("%s: got status %d, etag %q, %d body bytes; want %d, %q, %d",
				k, g.status, g.etag, len(g.body), w.status, w.etag, len(w.body))
		}
	}
	return nil
}
