package measure

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"dropzero/internal/dropscope"
	"dropzero/internal/inproc"
	"dropzero/internal/model"
	"dropzero/internal/rdap"
	"dropzero/internal/registry"
	"dropzero/internal/simtime"
	"dropzero/internal/whois"
)

// env is a miniature registry world for pipeline tests.
type env struct {
	clock *simtime.SimClock
	store *registry.Store
	pipe  *Pipeline
	day   simtime.Day
}

func newEnv(t *testing.T, rdapCfg rdap.ServerConfig, withWhois bool) *env {
	t.Helper()
	day := simtime.Day{Year: 2018, Month: time.January, Dom: 10}
	clock := simtime.NewSimClock(day.At(9, 0, 0))
	store := registry.NewStore(clock)
	store.AddRegistrar(model.Registrar{IANAID: 1000, Name: "Sponsor"})
	store.AddRegistrar(model.Registrar{IANAID: 2000, Name: "Catcher"})
	store.AddRegistrar(model.Registrar{IANAID: 1727, Name: "Broken"})

	rdapSrv := rdap.NewServer(store, rdapCfg)
	scopeSrv := dropscope.NewServer(store)
	rdapClient, err := rdap.NewClient("http://rdap.test", inproc.Client(rdapSrv.Handler()))
	if err != nil {
		t.Fatal(err)
	}
	scopeClient, err := dropscope.NewClient("http://scope.test", inproc.Client(scopeSrv.Handler()))
	if err != nil {
		t.Fatal(err)
	}
	pipe := &Pipeline{Lists: scopeClient, RDAP: rdapClient, TLDFilter: model.COM}
	if withWhois {
		wsrv := whois.NewServer(store)
		addr, err := wsrv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { wsrv.Close() })
		pipe.WHOIS = &whois.Client{Addr: addr.String()}
	}
	return &env{clock: clock, store: store, pipe: pipe, day: day}
}

func (e *env) seedPending(t *testing.T, name string, registrar int, deleteDay simtime.Day) *model.Domain {
	t.Helper()
	updated := deleteDay.AddDays(-35).At(6, 30, 0)
	d, err := e.store.SeedAt(name, registrar, updated.AddDate(-2, 0, 0), updated,
		updated.AddDate(0, 0, -30), model.StatusPendingDelete, deleteDay)
	if err != nil {
		t.Fatal(err)
	}
	return &d
}

// purgeAndRereg deletes the name via the store's drop path and optionally
// re-registers it.
func (e *env) purgeAndRereg(t *testing.T, name string, reregBy int, at time.Time) {
	t.Helper()
	runner := registry.NewDropRunner(e.store, registry.DropConfig{
		StartHour: 19, BaseRatePerSec: 1000, RateJitter: 0, DayRateSpread: 0,
	})
	d, err := e.store.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	events, err := runner.Run(d.DeleteDay, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("nothing purged")
	}
	if reregBy != 0 {
		if _, err := e.store.CreateAt(name, reregBy, 1, at); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPipelineDetectsRereg(t *testing.T) {
	e := newEnv(t, rdap.ServerConfig{}, false)
	prior := e.seedPending(t, "target.com", 1000, e.day)
	ctx := context.Background()
	if err := e.pipe.CollectDaily(ctx, e.day); err != nil {
		t.Fatal(err)
	}
	if len(e.pipe.pending) != 1 {
		t.Fatalf("pending = %d", len(e.pipe.pending))
	}
	reregAt := e.day.At(19, 0, 7)
	e.purgeAndRereg(t, "target.com", 2000, reregAt)
	e.clock.Set(e.day.AddDays(60).At(12, 0, 0))
	obs, err := e.pipe.Finalize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(obs) != 1 {
		t.Fatalf("observations = %d", len(obs))
	}
	o := obs[0]
	if o.PriorID() != prior.ID || o.PriorRegistrar() != 1000 {
		t.Fatalf("prior metadata: %+v", o.Prior())
	}
	if !o.Reregistered() || o.ReregRegistrar() != 2000 || !o.ReregTime().Equal(reregAt) {
		t.Fatalf("rereg: %v at %v by %d", o.Reregistered(), o.ReregTime(), o.ReregRegistrar())
	}
}

func TestPipelineDetectsNonRereg(t *testing.T) {
	e := newEnv(t, rdap.ServerConfig{}, false)
	e.seedPending(t, "gone.com", 1000, e.day)
	ctx := context.Background()
	if err := e.pipe.CollectDaily(ctx, e.day); err != nil {
		t.Fatal(err)
	}
	e.purgeAndRereg(t, "gone.com", 0, time.Time{})
	obs, err := e.pipe.Finalize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(obs) != 1 || obs[0].Reregistered() {
		t.Fatalf("observations: %+v", obs)
	}
}

func TestPipelineWHOISFallback(t *testing.T) {
	e := newEnv(t, rdap.ServerConfig{FailRegistrars: map[int]int{1727: http.StatusInternalServerError}}, true)
	e.seedPending(t, "broken.com", 1727, e.day)
	ctx := context.Background()
	if err := e.pipe.CollectDaily(ctx, e.day); err != nil {
		t.Fatal(err)
	}
	st := e.pipe.Stats()
	if st.RDAPErrors != 1 || st.WHOISFallbacks != 1 || st.FallbackFailed != 0 {
		t.Fatalf("stats = %+v", st)
	}
	e.purgeAndRereg(t, "broken.com", 0, time.Time{})
	obs, err := e.pipe.Finalize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(obs) != 1 {
		t.Fatalf("fallback domain missing from dataset: %d", len(obs))
	}
	if obs[0].PriorRegistrar() != 1727 {
		t.Fatalf("prior: %+v", obs[0].Prior())
	}
}

func TestPipelineNoFallbackDropsDomain(t *testing.T) {
	e := newEnv(t, rdap.ServerConfig{FailRegistrars: map[int]int{1727: http.StatusInternalServerError}}, false)
	e.seedPending(t, "broken.com", 1727, e.day)
	ctx := context.Background()
	if err := e.pipe.CollectDaily(ctx, e.day); err != nil {
		t.Fatal(err)
	}
	if st := e.pipe.Stats(); st.FallbackFailed != 1 {
		t.Fatalf("stats = %+v", st)
	}
	obs, err := e.pipe.Finalize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(obs) != 0 {
		t.Fatalf("domain without metadata kept: %d", len(obs))
	}
}

// TestFinalizeFailedLookupIsNotANonRereg: a name re-registered through an
// accreditation whose RDAP answers 500 cannot be looked up again. With no
// WHOIS to ask, what became of it is unknown: the name leaves the dataset as
// a counted failure, like one whose prior metadata could not be collected —
// not as a row saying nobody took it. With WHOIS, the fallback finds the
// re-registration. A cancelled Finalize is an error that moves no counter,
// not an empty dataset.
func TestFinalizeFailedLookupIsNotANonRereg(t *testing.T) {
	for _, withWhois := range []bool{false, true} {
		e := newEnv(t, rdap.ServerConfig{FailRegistrars: map[int]int{1727: http.StatusInternalServerError}}, withWhois)
		e.seedPending(t, "caught.com", 1000, e.day)
		e.seedPending(t, "gone.com", 1000, e.day)
		ctx := context.Background()
		if err := e.pipe.CollectDaily(ctx, e.day); err != nil {
			t.Fatal(err)
		}
		e.purgeAndRereg(t, "caught.com", 1727, e.day.At(19, 0, 7))
		e.clock.Set(e.day.AddDays(60).At(12, 0, 0))
		cancelled, cancel := context.WithCancel(ctx)
		cancel()
		if obs, err := e.pipe.Finalize(cancelled); !errors.Is(err, context.Canceled) || obs != nil {
			t.Fatalf("cancelled Finalize = %d rows, %v", len(obs), err)
		}
		obs, err := e.pipe.Finalize(ctx)
		if err != nil {
			t.Fatal(err)
		}
		st := e.pipe.Stats()
		if withWhois {
			if len(obs) != 2 || !obs[0].Reregistered() || obs[0].ReregRegistrar() != 1727 || st.FallbackFailed != 0 || st.Reregistered != 1 {
				t.Fatalf("with WHOIS: rows %+v, stats %+v", obs, st)
			}
			continue
		}
		if len(obs) != 1 || obs[0].Name() != "gone.com" || obs[0].Reregistered() {
			t.Fatalf("rows %+v, want gone.com alone", obs)
		}
		if st.FallbackFailed != 1 || st.NotReregistered != 1 || st.Reregistered != 0 || st.Lookups != 2 {
			t.Fatalf("stats %+v, want one failed fallback, one non-re-registration, two (prior) lookups", st)
		}
	}
}

// TestPipelineUnusableObjectSkipsWHOIS: a 200 whose object lacks a field the
// dataset needs is not a server failure. The prior lookup drops the name and
// the current one returns the error — Finalize omits the row of a name whose
// object broke only by T+8w, and counts it nowhere, as the prior lookup does —
// neither asking WHOIS, which here would have answered.
func TestPipelineUnusableObjectSkipsWHOIS(t *testing.T) {
	e := newEnv(t, rdap.ServerConfig{}, false)
	wsrv := whois.NewServer(e.store)
	addr, err := wsrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wsrv.Close() })
	e.pipe.WHOIS = &whois.Client{Addr: addr.String()}

	const events = `{"eventAction":"registration","eventDate":"2016-01-01T00:00:00Z"},{"eventAction":"last changed","eventDate":"2017-12-06T06:30:00Z"}`
	const registrar = `{"objectClassName":"entity","handle":"1000","roles":["registrar"]}`
	const expiration = `,{"eventAction":"expiration","eventDate":"2017-11-06T06:30:00Z"}`
	bodies := map[string]string{
		"/domain/brokenlater.com": `{"objectClassName":"domain","handle":"7_DOMAIN_COM-VRSN","ldhName":"brokenlater.com","status":["pendingDelete"],"events":[` + events + expiration + `],"entities":[` + registrar + `]}`,
		"/domain/noregistrar.com": `{"objectClassName":"domain","handle":"5_DOMAIN_COM-VRSN","ldhName":"noregistrar.com","status":["pendingDelete"],"events":[` + events + expiration + `],"entities":[]}`,
		"/domain/noexpiry.com":    `{"objectClassName":"domain","handle":"6_DOMAIN_COM-VRSN","ldhName":"noexpiry.com","status":["pendingDelete"],"events":[` + events + `],"entities":[` + registrar + `]}`,
	}
	e.pipe.RDAP, err = rdap.NewClient("http://rdap.test", inproc.Client(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, ok := bodies[r.URL.Path]
		if !ok {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/rdap+json")
		w.Write([]byte(body))
	})))
	if err != nil {
		t.Fatal(err)
	}
	e.seedPending(t, "noregistrar.com", 1000, e.day)
	e.seedPending(t, "noexpiry.com", 1000, e.day)
	e.seedPending(t, "brokenlater.com", 1000, e.day)

	ctx := context.Background()
	if err := e.pipe.CollectDaily(ctx, e.day); err != nil {
		t.Fatal(err)
	}
	want := Stats{ListEntries: 3, Lookups: 3}
	if st := e.pipe.Stats(); st != want {
		t.Fatalf("stats after collection = %+v, want %+v", st, want)
	}
	if pd := e.pipe.find("brokenlater.com"); pd == nil || pd.Prior == nil {
		t.Fatal("brokenlater.com's prior registration was not collected")
	}
	bodies["/domain/brokenlater.com"] = strings.Replace(bodies["/domain/brokenlater.com"], expiration, "", 1)
	for name := range bodies {
		name = strings.TrimPrefix(name, "/domain/")
		if cur, err := e.pipe.lookupCurrent(ctx, name); cur != nil || !errors.Is(err, rdap.ErrMalformed) {
			t.Errorf("lookupCurrent(%s) = %+v, %v, want ErrMalformed", name, cur, err)
		}
	}
	obs, err := e.pipe.Finalize(ctx)
	if err != nil || len(obs) != 0 {
		t.Fatalf("Finalize = %d observations, %v; want all three names dropped", len(obs), err)
	}
	if st := e.pipe.Stats(); st != want {
		t.Errorf("stats after Finalize = %+v, want %+v", st, want)
	}
	if n := wsrv.Metrics().Requests; n != 0 {
		t.Errorf("WHOIS was asked %d times", n)
	}
}

func TestPipelineTLDFilter(t *testing.T) {
	e := newEnv(t, rdap.ServerConfig{}, false)
	e.seedPending(t, "keep.com", 1000, e.day)
	e.seedPending(t, "skip.net", 1000, e.day)
	if err := e.pipe.CollectDaily(context.Background(), e.day); err != nil {
		t.Fatal(err)
	}
	if len(e.pipe.pending) != 1 {
		t.Fatalf("pending = %d, want .com only", len(e.pipe.pending))
	}
}

func TestPipelineLookupWindow(t *testing.T) {
	e := newEnv(t, rdap.ServerConfig{}, false)
	e.seedPending(t, "near.com", 1000, e.day.AddDays(2))
	e.seedPending(t, "far.com", 1000, e.day.AddDays(4))
	if err := e.pipe.CollectDaily(context.Background(), e.day); err != nil {
		t.Fatal(err)
	}
	// Both entries tracked, but only the near one (≤3 days out) looked up.
	if st := e.pipe.Stats(); st.ListEntries != 2 || st.Lookups != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Next day the far one enters the window.
	if err := e.pipe.CollectDaily(context.Background(), e.day.Next()); err != nil {
		t.Fatal(err)
	}
	if st := e.pipe.Stats(); st.Lookups != 2 {
		t.Fatalf("stats after day 2 = %+v", st)
	}
}

func TestPipelineIdempotentDailyCollect(t *testing.T) {
	e := newEnv(t, rdap.ServerConfig{}, false)
	e.seedPending(t, "once.com", 1000, e.day)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if err := e.pipe.CollectDaily(ctx, e.day); err != nil {
			t.Fatal(err)
		}
	}
	if st := e.pipe.Stats(); st.ListEntries != 1 || st.Lookups != 1 {
		t.Fatalf("repeat collection not idempotent: %+v", st)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	day := simtime.Day{Year: 2018, Month: time.January, Dom: 10}
	obs := []model.Observation{
		mustObs(t, "a.com", day, model.PriorRegistration{
			ID: 7, RegistrarID: 1000,
			Created: day.AddDays(-800).At(3, 2, 1),
			Updated: day.AddDays(-35).At(6, 30, 0),
			Expiry:  day.AddDays(-70).At(3, 2, 1),
		}, &model.Rereg{Time: day.At(19, 0, 7), RegistrarID: 2000}, true),
		mustObs(t, "b.com", day, model.PriorRegistration{
			ID: 8, RegistrarID: 1000,
			Created: day.AddDays(-400).At(0, 0, 0),
			Updated: day.AddDays(-35).At(6, 30, 1),
			Expiry:  day.AddDays(-70).At(0, 0, 0),
		}, nil, false),
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, obs); err != nil {
		t.Fatal(err)
	}
	want := strings.Join(csvHeader, ",") + "\n" +
		"a.com,com,2018-01-10,7,1000,2015-11-02T03:02:01Z,2017-12-06T06:30:00Z,2017-11-01T03:02:01Z,2018-01-10T19:00:07Z,2000,true\n" +
		"b.com,com,2018-01-10,8,1000,2016-12-06T00:00:00Z,2017-12-06T06:30:01Z,2017-11-01T00:00:00Z,,,false\n"
	if buf.String() != want {
		t.Fatalf("WriteCSV wrote:\n%s\nwant:\n%s", buf.String(), want)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.EqualFunc(got, obs, model.Observation.Equal) {
		t.Fatalf("read back %+v, wrote %+v", got, obs)
	}
	if !got[0].Reregistered() || got[0].ReregRegistrar() != 2000 || !got[0].ReregTime().Equal(day.At(19, 0, 7)) || !got[0].Malicious() {
		t.Fatalf("row 0: %+v", got[0])
	}
	if got[1].Reregistered() || got[1].Prior() != obs[1].Prior() {
		t.Fatalf("row 1: %+v", got[1])
	}
}

func TestReadCSVRejectsBadHeader(t *testing.T) {
	if _, err := ReadCSV(bytes.NewBufferString("nope,nope\n")); err == nil {
		t.Fatal("bad header accepted")
	}
}

func TestReadCSVRejectsBadRow(t *testing.T) {
	var buf bytes.Buffer
	WriteCSV(&buf, nil)
	buf.WriteString("a.com,com,not-a-date,1,2,x,y,z,,,false\n")
	if _, err := ReadCSV(&buf); err == nil {
		t.Fatal("bad row accepted")
	}
}

// TestReadCSVRejectsWhatWriteCSVCannotWrite: a file whose values the dataset
// row would round or drop is refused rather than loaded as something else.
func TestReadCSVRejectsWhatWriteCSVCannotWrite(t *testing.T) {
	header := strings.Join(csvHeader, ",")
	const good = "a.com,com,2018-01-10,7,1000,2015-11-02T03:02:01Z,2017-12-06T06:30:00Z,2017-11-01T03:02:01Z,2018-01-10T19:00:07Z,2000,true"
	if _, err := ReadCSV(strings.NewReader(header + "\n" + good + "\n")); err != nil {
		t.Fatalf("reference row refused: %v", err)
	}
	edit := func(col int, val string) string {
		f := strings.Split(good, ",")
		f[col] = val
		return header + "\n" + strings.Join(f, ",") + "\n"
	}
	cases := map[string]string{
		"a later header column renamed":          strings.Replace(header, "prior_updated", "updated", 1) + "\n" + good + "\n",
		"header columns swapped":                 strings.Replace(header, "prior_created,prior_updated", "prior_updated,prior_created", 1) + "\n" + good + "\n",
		"tld column disagrees with the name":     edit(1, "net"),
		"tld column empty":                       edit(1, ""),
		"fractional prior_created":               edit(5, "2015-11-02T03:02:01.5Z"),
		"fractional rereg_time":                  edit(8, "2018-01-10T19:00:07.000000001Z"),
		"instant before year 0 in UTC":           edit(5, "0000-01-01T00:00:00+01:00"),
		"instant after year 9999 in UTC":         edit(7, "9999-12-31T23:59:59-01:00"),
		"prior_created one second before 1970":   edit(5, "1969-12-31T23:59:59Z"),
		"prior_updated 1970 only by its offset":  edit(6, "1970-01-01T00:59:59+01:00"),
		"prior_expiry one second past the end":   edit(7, "2106-02-07T06:28:15Z"),
		"rereg_time one second past the end":     edit(8, "2106-02-07T06:28:15Z"),
		"prior_created in year 1, not its start": edit(5, "0001-01-01T00:00:01Z"),
		"prior_registrar 65 536":                 edit(4, "65536"),
		"prior_registrar -1":                     edit(4, "-1"),
		"rereg_registrar 65 536":                 edit(9, "65536"),
		"rereg_registrar -65 535 (wraps to 1)":   edit(9, "-65535"),
		"delete_day 1970-01-01, day number 0":    edit(2, "1970-01-01"),
		"delete_day 1969-12-31":                  edit(2, "1969-12-31"),
		"delete_day 2149-06-07, number 65 536":   edit(2, "2149-06-07"),
		"delete_day 30 February":                 edit(2, "2018-02-30"),
		"delete_day in year 0":                   edit(2, "0000-01-01"),
		"malicious without a re-registration":    strings.Replace(edit(8, ""), ",2000,true", ",,true", 1),
		"rereg_registrar without a rereg_time":   strings.Replace(edit(8, ""), ",2000,true", ",2000,false", 1),
		"malicious not a boolean on a bare row":  strings.Replace(edit(8, ""), ",2000,true", ",,", 1),
	}
	for name, file := range cases {
		if _, err := ReadCSV(strings.NewReader(file)); err == nil {
			t.Errorf("%s: accepted\n%s", name, file)
		}
	}
	// What the row cannot hold is refused with the line it is on.
	for name, bad := range map[string]string{
		"rereg_time":      edit(8, "2106-02-07T06:28:15Z"),
		"prior_registrar": edit(4, "65536"),
		"rereg_registrar": edit(9, "65536"),
		"delete_day":      edit(2, "2149-06-07"),
	} {
		file := header + "\n" + good + "\n" + strings.Split(bad, "\n")[1] + "\n"
		if _, err := ReadCSV(strings.NewReader(file)); err == nil || !strings.Contains(err.Error(), "line 3") {
			t.Errorf("out-of-range %s on line 3: %v", name, err)
		}
	}
	// The ends of the range and the zero time are rows like any other.
	for name, file := range map[string]string{
		"prior_created at 1970-01-01T00:00:00Z": edit(5, "1970-01-01T00:00:00Z"),
		"prior_expiry at the last instant":      edit(7, "2106-02-07T06:28:14Z"),
		"rereg_time at the last instant":        edit(8, "2106-02-07T07:28:14+01:00"),
		"prior_updated the zero time":           edit(6, "0001-01-01T00:00:00Z"),
		"prior_registrar 0":                     edit(4, "0"),
		"prior_registrar 1":                     edit(4, "1"),
		"prior_registrar 65 535":                edit(4, "65535"),
		"rereg_registrar 0":                     edit(9, "0"),
		"rereg_registrar 65 535":                edit(9, "65535"),
		"delete_day 1970-01-02, day number 1":   edit(2, "1970-01-02"),
		"delete_day 2149-06-06, number 65 535":  edit(2, "2149-06-06"),
	} {
		obs, err := ReadCSV(strings.NewReader(file))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		var out bytes.Buffer
		if err := WriteCSV(&out, obs); err != nil {
			t.Fatal(err)
		}
		if again, err := ReadCSV(&out); err != nil || !slices.EqualFunc(obs, again, model.Observation.Equal) {
			t.Errorf("%s: does not survive WriteCSV: %v", name, err)
		}
	}
}
