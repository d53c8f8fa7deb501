package measure

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"dropzero/internal/dropscope"
	"dropzero/internal/inproc"
	"dropzero/internal/model"
	"dropzero/internal/rdap"
	"dropzero/internal/registry"
	"dropzero/internal/safebrowsing"
	"dropzero/internal/simtime"
	"dropzero/internal/whois"
)

// listWorld is a registry and the pending-delete lists served for it, day by
// day, as a test chooses them: random subsets of each five-day window (so a
// name can first be listed days after an earlier list covered its deletion
// day), names listed again on the next lists, now and then under a second
// deletion day or twice on one day. Every fifth name is sponsored by a
// registrar whose RDAP answers 500, and one in twenty is listed but never
// registered.
type listWorld struct {
	clock  *simtime.SimClock
	store  *registry.Store
	oracle *safebrowsing.Oracle
	rdap   *rdap.Server
	whois  *whois.Server
	start  simtime.Day
	days   int
	lists  map[simtime.Day][]dropscope.Entry
}

func newListWorld(t testing.TB, seed int64, days, names int) *listWorld {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	start := simtime.Day{Year: 2018, Month: time.January, Dom: 10}
	w := &listWorld{
		clock:  simtime.NewSimClock(start.At(9, 0, 0)),
		oracle: safebrowsing.NewOracle(),
		start:  start,
		days:   days,
		lists:  make(map[simtime.Day][]dropscope.Entry),
	}
	w.store = registry.NewStore(w.clock)
	for _, id := range []int{1000, 1727, 2000} {
		w.store.AddRegistrar(model.Registrar{IANAID: id})
	}
	w.rdap = rdap.NewServer(w.store, rdap.ServerConfig{FailRegistrars: map[int]int{1727: http.StatusInternalServerError}})
	w.whois = whois.NewServer(w.store)
	type listed struct {
		name string
		day  simtime.Day
	}
	all := make([]listed, names)
	for i := range all {
		label := make([]byte, 1+rng.Intn(6))
		for k := range label {
			label[k] = byte('a' + rng.Intn(4))
		}
		name := fmt.Sprintf("%s%d.%s", label, i, []string{"com", "com", "net"}[rng.Intn(3)])
		day := start.AddDays(rng.Intn(days + dropscope.LookaheadDays))
		all[i] = listed{name, day}
		if i%20 == 19 {
			continue
		}
		sponsor := 1000
		if i%5 == 0 {
			sponsor = 1727
		}
		updated := day.AddDays(-35).At(6, 30, rng.Intn(60))
		if _, err := w.store.SeedAt(name, sponsor, updated.AddDate(-2, 0, 0), updated,
			updated.AddDate(0, 0, -30), model.StatusPendingDelete, day); err != nil {
			t.Fatal(err)
		}
	}
	for d := 0; d < days; d++ {
		today := start.AddDays(d)
		end := today.AddDays(dropscope.LookaheadDays)
		var list []dropscope.Entry
		for _, l := range all {
			if l.day.Before(today) || !l.day.Before(end) || rng.Intn(4) == 0 {
				continue
			}
			list = append(list, mustPending(l.name, l.day))
			switch rng.Intn(30) {
			case 0: // listed under a second day of the window too
				list = append(list, mustPending(l.name, today.AddDays(rng.Intn(dropscope.LookaheadDays))))
			case 1: // listed twice on its day
				list = append(list, mustPending(l.name, l.day))
			}
		}
		slices.SortFunc(list, func(a, b dropscope.Entry) int {
			return cmp.Or(a.DeleteDay().Compare(b.DeleteDay()), strings.Compare(a.Name, b.Name))
		})
		w.lists[today] = list
	}
	return w
}

// serveLists answers /pendingdelete with the list the world holds for the
// requested day, in the server's CSV format.
func (w *listWorld) serveLists(rw http.ResponseWriter, r *http.Request) {
	day, err := simtime.ParseDay(r.URL.Query().Get("date"))
	if err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	rw.Write(dropscope.RenderEntries(w.lists[day]))
}

// pipeline returns a pipeline over its own HTTP list client and an RDAP
// client that appends every name it looks up to *looked.
func (w *listWorld) pipeline(t testing.TB, filter model.TLD, fallback bool, looked *[]string) *Pipeline {
	t.Helper()
	lists, err := dropscope.NewClient("http://scope.test", inproc.Client(http.HandlerFunc(w.serveLists)))
	if err != nil {
		t.Fatal(err)
	}
	rdapc, err := rdap.NewClient("http://rdap.test", inproc.Client(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		*looked = append(*looked, strings.TrimPrefix(r.URL.Path, "/domain/"))
		w.rdap.Handler().ServeHTTP(rw, r)
	})))
	if err != nil {
		t.Fatal(err)
	}
	p := &Pipeline{Lists: lists, RDAP: rdapc, Oracle: safebrowsing.NewBoundClient(w.oracle), TLDFilter: filter, Parallelism: 1}
	if fallback {
		p.WHOIS = whois.NewBoundClient(w.whois)
	}
	return p
}

// dropAndReregister purges the names of the study's days and the two after,
// re-registers every other purged name (one in three of them flagged by the
// oracle) and moves the clock eight weeks on. Names deleting later are left
// as they are: the T+8-weeks lookup finds the registration first seen.
func (w *listWorld) dropAndReregister(t testing.TB, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	runner := registry.NewDropRunner(w.store, registry.DropConfig{StartHour: 19, BaseRatePerSec: 1000})
	for d := 0; d < w.days+2; d++ {
		day := w.start.AddDays(d)
		evs, err := runner.Run(day, rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range evs {
			if rng.Intn(2) == 0 {
				continue
			}
			if _, err := w.store.CreateAt(ev.Name(), 2000, 1, day.At(19, 30, rng.Intn(60))); err != nil {
				t.Fatal(err)
			}
			w.oracle.Set(ev.Name(), rng.Intn(3) == 0)
		}
	}
	w.clock.Set(w.start.AddDays(w.days+70).At(12, 0, 0))
}

// mapPipeline is the pipeline as it kept its names before they were one
// ordered slice: a map from name to domain, the due and collected sets
// sorted by name on every pass. It is the reference the ordered pipeline is
// held to; it shares the clients and the per-name lookups.
type mapPipeline struct {
	p       *Pipeline
	pending map[string]*PendingEntry
	stats   Stats
}

func (r *mapPipeline) collectDaily(ctx context.Context, today simtime.Day) error {
	entries, err := r.p.Lists.Fetch(ctx, today)
	if err != nil {
		return err
	}
	for _, e := range entries {
		tld, ok := model.TLDOf(e.Name)
		if !ok || (r.p.TLDFilter != "" && tld != r.p.TLDFilter) {
			continue
		}
		if _, seen := r.pending[e.Name]; seen {
			continue
		}
		pe := mustEntry(e.Name, e.DeleteDay(), nil)
		r.pending[e.Name] = &pe
		r.stats.ListEntries++
	}
	cutoff := today.AddDays(LookaheadLookupDays)
	var due []string
	for name, pd := range r.pending {
		if pd.Prior == nil && !cutoff.Before(pd.DeleteDay()) {
			due = append(due, name)
		}
	}
	slices.Sort(due)
	for _, name := range due {
		prior, d := r.p.lookupPrior(ctx, name)
		r.stats.add(d)
		r.pending[name].Prior = prior
	}
	return nil
}

func (r *mapPipeline) finalize(ctx context.Context) ([]model.Observation, error) {
	var collected []string
	for name, pd := range r.pending {
		if pd.Prior != nil {
			collected = append(collected, name)
		}
	}
	slices.Sort(collected)
	var rows []model.Observation
	for _, name := range collected {
		pd := r.pending[name]
		var rereg *model.Rereg
		cur, err := r.p.lookupCurrent(ctx, name)
		switch {
		case errors.Is(err, rdap.ErrMalformed):
			continue
		case err != nil:
			r.stats.FallbackFailed++
			continue
		case cur == nil:
			r.stats.NotReregistered++
		case cur.ID != pd.Prior.ID:
			rereg = &model.Rereg{Time: cur.Created, RegistrarID: cur.RegistrarID}
			r.stats.Reregistered++
		default:
			continue
		}
		malicious := false
		if rereg != nil {
			r.stats.OracleLookups++
			if malicious, err = r.p.Oracle.Lookup(name); err != nil {
				return nil, err
			}
		}
		row, err := model.NewObservation(name, pd.DeleteDay(), *pd.Prior, rereg, malicious)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func (r *mapPipeline) state() CollectDelta {
	st := CollectDelta{Stats: r.stats}
	for _, pd := range r.pending {
		e := *pd
		if pd.Prior != nil {
			c := *pd.Prior
			e.Prior = &c
		}
		st.Added = append(st.Added, e)
	}
	slices.SortFunc(st.Added, func(a, b PendingEntry) int { return strings.Compare(a.Name, b.Name) })
	return st
}

// restored is a fresh pipeline with st applied.
func restored(t *testing.T, st *CollectDelta) *Pipeline {
	t.Helper()
	p := &Pipeline{}
	if err := p.ApplyDelta(st); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestOrderedPipelineMatchesMapReference: over randomized multi-day lists,
// with the TLD filter on and off and with and without the WHOIS fallback for
// the registrar whose RDAP fails, the ordered pipeline and the map-based
// reference make the same lookups in the same order, count the same Stats,
// export the same state every day and return the same dataset. Every day's
// state survives ApplyDelta(State()), and the days' deltas replayed in turn
// rebuild it.
func TestOrderedPipelineMatchesMapReference(t *testing.T) {
	for _, filter := range []model.TLD{model.COM, ""} {
		for _, fallback := range []bool{true, false} {
			t.Run(fmt.Sprintf("filter=%q/fallback=%v", filter, fallback), func(t *testing.T) {
				for seed := int64(1); seed <= 3; seed++ {
					w := newListWorld(t, seed, 6, 400)
					var gotLooked, wantLooked []string
					p := w.pipeline(t, filter, fallback, &gotLooked)
					p.TrackDeltas = true
					ref := &mapPipeline{p: w.pipeline(t, filter, fallback, &wantLooked), pending: make(map[string]*PendingEntry)}
					replayed := &Pipeline{}
					ctx := context.Background()
					for d := 0; d < w.days; d++ {
						today := w.start.AddDays(d)
						w.clock.Set(today.At(10, 0, 0))
						if err := p.CollectDaily(ctx, today); err != nil {
							t.Fatal(err)
						}
						if err := ref.collectDaily(ctx, today); err != nil {
							t.Fatal(err)
						}
						if !slices.Equal(gotLooked, wantLooked) {
							t.Fatalf("seed %d, %v: looked up %v, the reference %v", seed, today, gotLooked, wantLooked)
						}
						if p.Stats() != ref.stats {
							t.Fatalf("seed %d, %v: stats %+v, the reference %+v", seed, today, p.Stats(), ref.stats)
						}
						st := p.State()
						if want := ref.state(); !reflect.DeepEqual(st, want) {
							t.Fatalf("seed %d, %v: state differs from the reference's", seed, today)
						}
						if got := restored(t, &st).State(); !reflect.DeepEqual(got, st) {
							t.Fatalf("seed %d, %v: ApplyDelta(State()) does not round-trip", seed, today)
						}
						if err := replayed.ApplyDelta(p.TakeDelta()); err != nil {
							t.Fatal(err)
						}
						if got := replayed.State(); !reflect.DeepEqual(got, st) {
							t.Fatalf("seed %d, %v: the replayed deltas differ from the state", seed, today)
						}
					}
					if ref.stats.RDAPErrors == 0 || ref.stats.ListEntries < 100 {
						t.Fatalf("seed %d: the lists exercised too little: %+v", seed, ref.stats)
					}
					w.dropAndReregister(t, seed)
					gotLooked, wantLooked = gotLooked[:0], wantLooked[:0]
					got, err := p.Finalize(ctx)
					if err != nil {
						t.Fatal(err)
					}
					want, err := ref.finalize(ctx)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.EqualFunc(got, want, model.Observation.Equal) || !slices.Equal(gotLooked, wantLooked) || p.Stats() != ref.stats {
						t.Fatalf("seed %d: Finalize: %d rows after %d lookups (%+v), the reference %d after %d (%+v)",
							seed, len(got), len(gotLooked), p.Stats(), len(want), len(wantLooked), ref.stats)
					}
					if ref.stats.Reregistered == 0 || ref.stats.NotReregistered == 0 || ref.stats.OracleLookups == 0 {
						t.Fatalf("seed %d: Finalize exercised too little: %+v", seed, ref.stats)
					}
				}
			})
		}
	}
}

// TestApplyDeltaTakesListOrder: day records journaled while the pipeline
// still hashed its names hold Added in list order, (deletion day, name);
// they, and deltas in any other order, restore the state the name-ordered
// deltas do.
func TestApplyDeltaTakesListOrder(t *testing.T) {
	w := newListWorld(t, 7, 5, 300)
	var looked []string
	p := w.pipeline(t, "", true, &looked)
	p.TrackDeltas = true
	var deltas []*CollectDelta
	for d := 0; d < w.days; d++ {
		today := w.start.AddDays(d)
		w.clock.Set(today.At(10, 0, 0))
		if err := p.CollectDaily(context.Background(), today); err != nil {
			t.Fatal(err)
		}
		deltas = append(deltas, p.TakeDelta())
	}
	want := p.State()
	rng := rand.New(rand.NewSource(7))
	for _, order := range []struct {
		name    string
		reorder func([]PendingEntry)
	}{
		{"list", func(es []PendingEntry) {
			slices.SortFunc(es, func(a, b PendingEntry) int {
				return cmp.Or(a.DeleteDay().Compare(b.DeleteDay()), strings.Compare(a.Name, b.Name))
			})
		}},
		{"shuffled", func(es []PendingEntry) { rng.Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] }) }},
	} {
		q := &Pipeline{}
		for _, d := range deltas {
			c := *d
			c.Added = slices.Clone(d.Added)
			order.reorder(c.Added)
			if err := q.ApplyDelta(&c); err != nil {
				t.Fatalf("%s order: %v", order.name, err)
			}
		}
		if got := q.State(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s order restores a different state", order.name)
		}
		st := want
		st.Added = slices.Clone(want.Added)
		order.reorder(st.Added)
		if got := restored(t, &st).State(); !reflect.DeepEqual(got, want) {
			t.Fatalf("a state export in %s order restores a different state", order.name)
		}
	}
}

// TestApplyDeltaRefusesWhatCannotReplay: a delta adding a name twice, or one
// already tracked, or resolving one never tracked, is an error.
func TestApplyDeltaRefusesWhatCannotReplay(t *testing.T) {
	day := simtime.Day{Year: 2018, Month: time.January, Dom: 10}
	entry := func(name string) PendingEntry { return mustEntry(name, day, nil) }
	prior := &model.PriorRegistration{ID: 7, RegistrarID: 1000}
	for _, c := range []struct {
		name string
		d    CollectDelta
	}{
		{"added twice", CollectDelta{Added: []PendingEntry{entry("b.com"), entry("a.com"), entry("b.com")}}},
		{"already tracked", CollectDelta{Added: []PendingEntry{entry("c.com"), entry("tracked.com")}}},
		{"resolved untracked", CollectDelta{Resolved: []PendingEntry{mustEntry("nowhere.com", day, prior)}}},
	} {
		p := restored(t, &CollectDelta{Added: []PendingEntry{entry("tracked.com")}})
		if err := p.ApplyDelta(&c.d); err == nil {
			t.Errorf("%s: ApplyDelta accepted it", c.name)
		}
	}
}

// TestCollectDailyRefusesUnorderedList: a list out of (deletion day, name)
// order is refused before anything is tracked; a name listed twice in order
// is tracked once.
func TestCollectDailyRefusesUnorderedList(t *testing.T) {
	day := simtime.Day{Year: 2018, Month: time.January, Dom: 10}
	d0, d1 := day.String(), day.Next().String()
	for _, c := range []struct {
		body    string
		entries int // tracked, or -1 for a refusal
	}{
		{"b.com," + d0 + "\na.com," + d0 + "\n", -1},
		{"a.com," + d1 + "\nb.com," + d0 + "\n", -1},
		{"b.com," + d0 + "\nc.com," + d0 + "\na.com," + d1 + "\n", 3},
		{"a.com," + d0 + "\na.com," + d0 + "\nb.com," + d0 + "\na.com," + d1 + "\n", 2},
	} {
		lists, err := dropscope.NewClient("http://scope.test", inproc.Client(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.Write([]byte(c.body))
		})))
		if err != nil {
			t.Fatal(err)
		}
		rdapc, err := rdap.NewClient("http://rdap.test", inproc.Client(http.NotFoundHandler()))
		if err != nil {
			t.Fatal(err)
		}
		p := &Pipeline{Lists: lists, RDAP: rdapc}
		err = p.CollectDaily(context.Background(), day)
		switch {
		case c.entries < 0 && (err == nil || len(p.pending) != 0 || p.Stats() != Stats{}):
			t.Errorf("%q: CollectDaily = %v, %d tracked, %+v; want a refusal that tracks nothing", c.body, err, len(p.pending), p.Stats())
		case c.entries >= 0 && (err != nil || len(p.pending) != c.entries || p.Stats().ListEntries != c.entries):
			t.Errorf("%q: CollectDaily = %v, %d tracked, %+v; want %d", c.body, err, len(p.pending), p.Stats(), c.entries)
		}
	}
}

// TestPendingEntryLayout: a tracked name costs its name, its stored day and
// its prior pointer. The TLD is its name's suffix and is not stored twice.
func TestPendingEntryLayout(t *testing.T) {
	if got := unsafe.Sizeof(PendingEntry{}); got != 32 {
		t.Fatalf("PendingEntry is %d bytes, want 32", got)
	}
}

// TestPendingEntryDay: an entry gives back the day it was built with, at
// both ends of the stored range and for the zero Day, and refuses a day it
// cannot store.
func TestPendingEntryDay(t *testing.T) {
	for _, day := range []simtime.Day{{}, {Year: 1970, Month: time.January, Dom: 2}, {Year: 2018, Month: time.January, Dom: 10}, {Year: 2149, Month: time.June, Dom: 6}} {
		if e := mustEntry("a.com", day, nil); e.DeleteDay() != day {
			t.Fatalf("%v came back as %v", day, e.DeleteDay())
		}
	}
	for _, day := range []simtime.Day{{Year: 1970, Month: time.January, Dom: 1}, {Year: 2149, Month: time.June, Dom: 7}, {Year: 2018, Month: time.February, Dom: 30}} {
		if e, err := NewPendingEntry("a.com", day, nil); err == nil {
			t.Errorf("%v accepted as %v", day, e.DeleteDay())
		}
	}
}

// mustEntry is NewPendingEntry for days a test knows fit.
func mustEntry(name string, day simtime.Day, prior *model.PriorRegistration) PendingEntry {
	e, err := NewPendingEntry(name, day, prior)
	if err != nil {
		panic(err)
	}
	return e
}

// mustPending is registry.NewPending for days a list can hold.
func mustPending(name string, day simtime.Day) dropscope.Entry {
	e, err := registry.NewPending(name, day)
	if err != nil {
		panic(err)
	}
	return e
}
