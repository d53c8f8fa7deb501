package zonefile

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"time"

	"dropzero/internal/inproc"
	"dropzero/internal/model"
	"dropzero/internal/registry"
	"dropzero/internal/simtime"
	"dropzero/internal/zone"
)

func newWorld(tb testing.TB) (*registry.Store, *simtime.SimClock) {
	tb.Helper()
	clock := simtime.NewSimClock(time.Date(2018, 1, 10, 9, 0, 0, 0, time.UTC))
	store := registry.NewStore(clock)
	store.AddRegistrar(model.Registrar{IANAID: 1000})
	return store, clock
}

func TestExportParseRoundTrip(t *testing.T) {
	store, _ := newWorld(t)
	store.Create("beta.com", 1000, 1)
	store.Create("alpha.com", 1000, 1)
	store.Create("other.net", 1000, 1) // different zone
	var buf bytes.Buffer
	if err := Export(store, model.COM, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Sorted, one pair of NS lines per name, SOA at the top.
	if !strings.Contains(out, "com. 900 IN SOA") {
		t.Fatalf("missing SOA: %q", out)
	}
	if strings.Index(out, "alpha.com.") > strings.Index(out, "beta.com.") {
		t.Fatal("zone not sorted")
	}
	if strings.Contains(out, "other.net") {
		t.Fatal(".net name leaked into .com zone")
	}
	names, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || !names["alpha.com"] || !names["beta.com"] {
		t.Fatalf("parsed names: %v", names)
	}
}

func TestExportExcludesPulledRegistrations(t *testing.T) {
	store, clock := newWorld(t)
	store.Create("active.com", 1000, 1)
	store.Create("redemption.com", 1000, 1)
	store.MarkRedemption("redemption.com", clock.Now())
	store.Create("pending.com", 1000, 1)
	store.MarkPendingDelete("pending.com", clock.Now(), simtime.DayOf(clock.Now()).AddDays(5))

	var buf bytes.Buffer
	if err := Export(store, model.COM, &buf); err != nil {
		t.Fatal(err)
	}
	names, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !names["active.com"] || names["redemption.com"] || names["pending.com"] {
		t.Fatalf("zone contents: %v", names)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	for _, in := range []string{"garbage line\n", "a..com. 1 IN NS ns1.example.\n"} {
		if _, err := Parse(strings.NewReader(in)); err == nil {
			t.Fatalf("garbage %q accepted", in)
		}
	}
	names, err := Parse(strings.NewReader("; comment\n$ORIGIN com.\n\n"))
	if err != nil || len(names) != 0 {
		t.Fatalf("comment-only zone: %v %v", names, err)
	}
}

// FuzzParse pins Parse against any input a zone-file server could send: it
// never panics, and every name it returns is lower-case, has no trailing dot
// and lies below a zone apex.
func FuzzParse(f *testing.F) {
	f.Add("garbage line\n")
	f.Add("a..com. 1 IN NS ns1.example.\n")
	f.Add("; comment\n$ORIGIN com.\n\n")
	store, _ := newWorld(f)
	store.Create("alpha.com", 1000, 1)
	store.Create("beta.com", 1000, 1)
	var buf bytes.Buffer
	if err := Export(store, model.COM, &buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Fuzz(func(t *testing.T, in string) {
		names, err := Parse(strings.NewReader(in))
		if err != nil {
			return
		}
		for name := range names {
			if name != strings.ToLower(name) || strings.HasSuffix(name, ".") || !strings.Contains(name, ".") {
				t.Fatalf("Parse(%q) returned name %q", in, name)
			}
		}
	})
}

func TestDiff(t *testing.T) {
	older := map[string]bool{"a.com": true, "b.com": true}
	newer := map[string]bool{"b.com": true, "c.com": true}
	added, removed := Diff(older, newer)
	if len(added) != 1 || added[0] != "c.com" {
		t.Fatalf("added = %v", added)
	}
	if len(removed) != 1 || removed[0] != "a.com" {
		t.Fatalf("removed = %v", removed)
	}
}

// TestZoneDiffBaseline demonstrates the prior-work measurement channel: a
// deletion followed by a re-registration within the same day is *invisible*
// to consecutive-day zone diffs, and any visible change carries only day
// precision — the limitation that motivated the paper's RDAP-based method.
func TestZoneDiffBaseline(t *testing.T) {
	store, clock := newWorld(t)
	day := simtime.DayOf(clock.Now()).AddDays(5)

	// One domain heading for deletion (already out of the zone), one that
	// will stay registered.
	updated := clock.Now().AddDate(0, 0, -33)
	if _, err := store.SeedAt("dropme.com", 1000, updated.AddDate(-2, 0, 0), updated,
		updated.AddDate(0, 0, -35), model.StatusPendingDelete, day); err != nil {
		t.Fatal(err)
	}
	store.Create("steady.com", 1000, 1)

	snapshot := func() map[string]bool {
		var buf bytes.Buffer
		if err := Export(store, model.COM, &buf); err != nil {
			t.Fatal(err)
		}
		names, err := Parse(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return names
	}

	dayBefore := snapshot()

	// The Drop deletes dropme.com at second precision...
	clock.Set(day.At(19, 0, 0))
	runner := registry.NewDropRunner(store, registry.DropConfig{StartHour: 19, BaseRatePerSec: 10})
	events, err := runner.Run(day, rand.New(rand.NewSource(1)))
	if err != nil || len(events) != 1 {
		t.Fatalf("drop: %v %v", events, err)
	}
	// ...and a drop-catcher re-registers it the same instant.
	if _, err := store.CreateAt("dropme.com", 1000, 1, events[0].Time()); err != nil {
		t.Fatal(err)
	}

	dayAfter := snapshot()
	added, removed := Diff(dayBefore, dayAfter)
	// The zone-diff channel sees one birth: dropme.com appears (it was out
	// of the zone during redemption/pendingDelete). It cannot say *when*
	// within the day, nor that the name was caught at the deletion instant.
	if len(added) != 1 || added[0] != "dropme.com" {
		t.Fatalf("added = %v", added)
	}
	if len(removed) != 0 {
		t.Fatalf("removed = %v", removed)
	}
}

func TestServerFetch(t *testing.T) {
	store, _ := newWorld(t)
	store.Create("served.com", 1000, 1)
	srv := NewServer(store)
	client := inproc.Client(srv.Handler())
	names, err := Fetch(client, "http://zones.internal", model.COM)
	if err != nil {
		t.Fatal(err)
	}
	if !names["served.com"] {
		t.Fatalf("names = %v", names)
	}
	if _, err := Fetch(client, "http://zones.internal", model.TLD("org")); err == nil {
		t.Fatal("foreign TLD accepted")
	}
	// Every TLD the store hosts is served, not only the default zone's.
	if err := store.AddZone(zone.Config{
		Name: "nordic", TLDs: []model.TLD{"se", "nu"},
		Lifecycle: zone.DefaultLifecycleConfig(), Policy: zone.PolicyInstant,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Create("foo.se", 1000, 1); err != nil {
		t.Fatal(err)
	}
	if names, err := Fetch(client, "http://zones.internal", "se"); err != nil || len(names) != 1 || !names["foo.se"] {
		t.Fatalf(".se zone = %v, %v", names, err)
	}
}

func TestServerOverTCP(t *testing.T) {
	store, _ := newWorld(t)
	store.Create("tcp.com", 1000, 1)
	srv := NewServer(store)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	names, err := Fetch(nil, "http://"+addr.String(), model.COM)
	if err != nil || !names["tcp.com"] {
		t.Fatalf("TCP fetch: %v %v", names, err)
	}
}
