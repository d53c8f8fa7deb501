package registry

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dropzero/internal/model"
	"dropzero/internal/simtime"
)

// captureJournal records every mutation the store commits, in commit order.
// It is the in-memory stand-in for the real WAL: the replay differential
// tests below assert that feeding the captured stream to Store.Apply
// reproduces the original store exactly, which is the property the on-disk
// journal's recovery path rests on.
type captureJournal struct {
	mu      sync.Mutex
	records []Mutation
}

func (c *captureJournal) Append(m Mutation) func() error {
	c.mu.Lock()
	c.records = append(c.records, m)
	c.mu.Unlock()
	return nil
}

// replayed is a fresh store of shards shards (0: the GOMAXPROCS default)
// that applied ms: one record at a time with workers 0, else as one
// ApplyBatch over workers goroutines.
func replayed(tb testing.TB, ms []Mutation, shards, workers int) *Store {
	tb.Helper()
	s, _ := newStore(tb, shards, 0)
	if workers > 0 {
		if err := s.ApplyBatch(ms, workers); err != nil {
			tb.Fatalf("replay in one batch: %v", err)
		}
		return s
	}
	for i, m := range ms {
		if err := s.Apply(m); err != nil {
			tb.Fatalf("record %d (%v %q): %v", i, m.Kind, m.Name, err)
		}
	}
	return s
}

// dumpStore renders every piece of durable store state as a canonical
// string: registrars, registrations with their transfer codes, due-index
// derived queues, the deletion archive, status counts and the allocator and
// generation counters. Two stores with equal dumps are interchangeable for
// every consumer in the system. Times print as RFC 3339 so stores built via
// different time.Time constructions (time.Date vs replayed values) compare
// by instant, not by internal representation.
func dumpStore(s *Store, from simtime.Day, days int) string {
	var b strings.Builder
	ts := func(t time.Time) string {
		if t.IsZero() {
			return "-"
		}
		return t.UTC().Format(time.RFC3339Nano)
	}

	regs := s.Registrars()
	sort.Slice(regs, func(i, j int) bool { return regs[i].IANAID < regs[j].IANAID })
	for _, r := range regs {
		fmt.Fprintf(&b, "registrar %d %q\n", r.IANAID, r.Name)
	}

	var ds []model.Domain
	s.Each(func(d *model.Domain) bool {
		ds = append(ds, *d)
		return true
	})
	sort.Slice(ds, func(i, j int) bool { return ds[i].Name < ds[j].Name })
	for _, d := range ds {
		sh := s.shardOf(d.Name)
		sh.mu.RLock()
		r, _ := sh.tab.get(d.Name)
		auth := sh.authInfo(r)
		sh.mu.RUnlock()
		fmt.Fprintf(&b, "domain %s id=%d tld=%s reg=%d created=%s updated=%s expiry=%s status=%s due=%v auth=%q\n",
			d.Name, d.ID, d.TLD, d.RegistrarID, ts(d.Created), ts(d.Updated), ts(d.Expiry), d.Status, d.DeleteDay, auth)
	}

	// The due indexes are not directly visible; the deletion queues built
	// from them are. Dump every queue in the window so a replay that filled
	// a wrong bucket diverges here even when the raw fields match.
	r := NewDropRunner(s, DefaultDropConfig())
	for i := 0; i < days; i++ {
		day := from.AddDays(i)
		for _, q := range r.BuildQueue(day) {
			fmt.Fprintf(&b, "queue %v %s id=%d updated=%s\n", day, q.Name, q.ID, ts(q.Updated))
		}
	}

	var archived []simtime.Day
	s.delMu.Lock()
	for day := range s.deletions {
		archived = append(archived, day)
	}
	sort.Slice(archived, func(i, j int) bool {
		return archived[i].At(0, 0, 0).Before(archived[j].At(0, 0, 0))
	})
	for _, day := range archived {
		for _, ev := range s.deletions[day] {
			fmt.Fprintf(&b, "deletion %v rank=%d id=%d %s.%s at=%s\n",
				day, ev.Rank(), ev.DomainID(), ev.Name(), ev.TLD(), ts(ev.Time()))
		}
	}
	s.delMu.Unlock()

	counts := s.StatusCounts()
	var sts []model.Status
	for st := range counts {
		sts = append(sts, st)
	}
	sort.Slice(sts, func(i, j int) bool { return sts[i] < sts[j] })
	for _, st := range sts {
		fmt.Fprintf(&b, "count %s=%d\n", st, counts[st])
	}

	fmt.Fprintf(&b, "nextID=%d gen=%d\n", s.nextID.Load(), s.gen.Load())
	return b.String()
}

// refuses runs op on s and fails t unless op fails with want and leaves s
// as it found it: the same dump (registrations, transfer codes, queues of
// the 80 days around testClock's, archive, counts, allocator, generation),
// a well-formed due index, and nothing handed to a journal.
func refuses(t *testing.T, s *Store, want error, op func() error) {
	t.Helper()
	from := simtime.DayOf(testClock().Now()).AddDays(-40)
	cap := &captureJournal{}
	s.SetJournal(cap)
	defer s.SetJournal(nil)
	before := dumpStore(s, from, 80)
	if err := op(); !errors.Is(err, want) {
		t.Fatalf("got %v, want %v", err, want)
	}
	diffDumps(t, "before", "after the refusal", before, dumpStore(s, from, 80))
	if len(cap.records) != 0 {
		t.Fatalf("a refused mutation was journaled: %+v", cap.records)
	}
	checkDuePositions(t, s)
}

// diffDumps reports the first line where two dumps diverge, keeping test
// failures readable (full dumps run to thousands of lines).
func diffDumps(t *testing.T, wantName, gotName, want, got string) {
	t.Helper()
	if want == got {
		return
	}
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			t.Errorf("store dumps diverge at line %d:\n%s: %s\n%s: %s", i+1, wantName, w, gotName, g)
			return
		}
	}
}

// TestReplayMatchesOriginal is the journal's differential test: drive a
// full multi-week workout (churn, lifecycle ticks, Drops) with a capturing
// journal attached, replay the captured mutation stream into an empty
// store, and require the replayed store to be indistinguishable from the
// original — same registrations, transfer codes, queues, deletion archive,
// ID allocator and generation counter.
func TestReplayMatchesOriginal(t *testing.T) {
	const days = 20
	start := simtime.Day{Year: 2018, Month: time.January, Dom: 8}
	for _, seed := range []int64{1, 7, 20180108} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			cap := &captureJournal{}
			_, orig := runEngineOn(t, seed, days, false, 0, cap)
			if len(cap.records) < 500 {
				t.Fatalf("workout too quiet: only %d journal records", len(cap.records))
			}

			diffDumps(t, "original", "replayed",
				dumpStore(orig, start, days+40), dumpStore(replayed(t, cap.records, 0, 0), start, days+40))
		})
	}
}

// TestSnapshotPlusTailMatchesOriginal checks the recovery composition the
// on-disk journal performs: restore a snapshot captured at an arbitrary
// point in the mutation stream, replay only the records after it, and the
// result must equal a full replay. Cut points cover the stream start (pure
// replay), the end (pure snapshot) and several interior positions.
func TestSnapshotPlusTailMatchesOriginal(t *testing.T) {
	const days = 12
	start := simtime.Day{Year: 2018, Month: time.January, Dom: 8}
	cap := &captureJournal{}
	_, orig := runEngineOn(t, 42, days, false, 0, cap)
	rng := rand.New(rand.NewSource(99))

	cuts := []int{0, 1, len(cap.records) / 2, len(cap.records) - 1, len(cap.records)}
	for i := 0; i < 4; i++ {
		cuts = append(cuts, rng.Intn(len(cap.records)+1))
	}
	want := dumpStore(orig, start, days+40)
	for _, cut := range cuts {
		// Build the snapshot source by replaying the prefix, as recovery
		// would have the live store at the moment the snapshotter ran.
		snap := replayed(t, cap.records[:cut], 0, 0).CaptureSnapshotSharded()

		re := NewStore(simtime.NewSimClock(start.At(0, 0, 0)))
		if err := re.restoreCaptured(snap); err != nil {
			t.Fatalf("cut %d: restore: %v", cut, err)
		}
		for _, m := range cap.records[cut:] {
			if err := re.Apply(m); err != nil {
				t.Fatalf("cut %d: tail replay: %v", cut, err)
			}
		}
		diffDumps(t, "original", fmt.Sprintf("snapshot@%d+tail", cut),
			want, dumpStore(re, start, days+40))
	}
}

// TestReadSnapshotQuiescedConsistent: ReadSnapshot must really stop every
// mutator for as long as its callback runs. The generation counter is read
// on entry and again after every shard has been visited (on their own
// goroutines, as the snapshot writer does); if any writer could commit in
// between, the two reads would diverge. Hammered from several goroutines —
// domain, registrar and zone writers — so a missing lock fails fast.
func TestReadSnapshotQuiescedConsistent(t *testing.T) {
	start := simtime.Day{Year: 2018, Month: time.January, Dom: 8}
	s := NewStoreWithShards(simtime.NewSimClock(start.At(0, 0, 0)), 8)
	s.AddRegistrar(model.Registrar{IANAID: 900, Name: "Reg"})
	const names = 64
	for i := 0; i < names; i++ {
		if _, err := s.CreateAt(fmt.Sprintf("quiesce%02d.com", i), 900, 1, start.At(9, 0, i%60)); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				s.TouchAt(fmt.Sprintf("quiesce%02d.com", (w*17+i)%names), 900, start.At(10, w, i%60))
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			select {
			case <-stop:
				return
			default:
			}
			s.AddRegistrar(model.Registrar{IANAID: 1000 + i, Name: fmt.Sprintf("Reg %d", i)})
			z := nordicZone()
			z.Name, z.TLDs = fmt.Sprintf("q%d", i), []model.TLD{model.TLD(fmt.Sprintf("q%d", i))}
			if err := s.AddZone(z); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 50; i++ {
		s.ReadSnapshot(func(r *SnapshotReader) {
			before, _ := r.Counters()
			regs, zones := len(r.Registrars()), len(r.Zones())
			var visited atomic.Int64
			var vg sync.WaitGroup
			for si := 0; si < s.ShardCount(); si++ {
				vg.Add(1)
				go func(si int) {
					defer vg.Done()
					r.VisitShard(si, func(int) {}, func(*model.Domain, []byte) { visited.Add(1) })
				}(si)
			}
			vg.Wait()
			if got := len(r.Registrars()); got != regs {
				t.Errorf("iteration %d: %d registrars, then %d", i, regs, got)
			}
			if got := len(r.Zones()); got != zones {
				t.Errorf("iteration %d: %d zones, then %d", i, zones, got)
			}
			if after, _ := r.Counters(); after != before {
				t.Errorf("iteration %d: a writer committed during the capture: generation %d -> %d", i, before, after)
			}
			if visited.Load() != names {
				t.Errorf("iteration %d: visited %d domains, want %d", i, visited.Load(), names)
			}
		})
		if t.Failed() {
			break
		}
	}
	close(stop)
	wg.Wait()
}
