package model

import (
	"strings"
	"testing"
	"time"
	"unsafe"

	"dropzero/internal/simtime"
)

func TestTLDOf(t *testing.T) {
	cases := []struct {
		name string
		tld  TLD
		ok   bool
	}{
		{"example.com", COM, true},
		{"example.net", NET, true},
		// TLDOf is structural only; whether "org" is hosted is the zone
		// registry's call (registry.Store.CheckName), not the parser's.
		{"example.org", "org", true},
		{"noext", "", false},
		{"trailing.", "", false},
		{"a.b.com", COM, true},
	}
	for _, c := range cases {
		tld, ok := TLDOf(c.name)
		if ok != c.ok || (ok && tld != c.tld) {
			t.Errorf("TLDOf(%q) = %q, %v; want %q, %v", c.name, tld, ok, c.tld, c.ok)
		}
	}
}

func TestStatusStringRoundTrip(t *testing.T) {
	for _, s := range []Status{StatusActive, StatusAutoRenew, StatusRedemption, StatusPendingDelete, StatusDeleted} {
		parsed, err := ParseStatus(s.String())
		if err != nil {
			t.Fatalf("ParseStatus(%q): %v", s.String(), err)
		}
		if parsed != s {
			t.Fatalf("round trip %v -> %q -> %v", s, s.String(), parsed)
		}
	}
}

func TestParseStatusUnknown(t *testing.T) {
	if _, err := ParseStatus("bogus"); err == nil {
		t.Fatal("ParseStatus(bogus) succeeded")
	}
}

func TestStatusStringOutOfRange(t *testing.T) {
	if s := Status(99).String(); s != "Status(99)" {
		t.Fatalf("String = %q", s)
	}
}

func TestDomainAgeYears(t *testing.T) {
	created := time.Date(2012, 6, 15, 10, 0, 0, 0, time.UTC)
	d := &Domain{Created: created}
	ref := time.Date(2018, 1, 2, 0, 0, 0, 0, time.UTC)
	if got := d.AgeYears(ref); got != 5 {
		t.Fatalf("AgeYears = %d, want 5", got)
	}
	// Reference before creation clamps to zero.
	if got := d.AgeYears(created.AddDate(-1, 0, 0)); got != 0 {
		t.Fatalf("AgeYears(before created) = %d, want 0", got)
	}
}

func mustObs(t *testing.T, name string, day simtime.Day, prior PriorRegistration, rereg *Rereg, malicious bool) Observation {
	t.Helper()
	o, err := NewObservation(name, day, prior, rereg, malicious)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestSameDayRereg(t *testing.T) {
	day := simtime.Day{Year: 2018, Month: time.January, Dom: 2}
	o := mustObs(t, "a.com", day, PriorRegistration{}, nil, false)
	if o.SameDayRereg() {
		t.Fatal("nil rereg counted as same-day")
	}
	o = mustObs(t, "a.com", day, PriorRegistration{}, &Rereg{Time: day.At(19, 5, 0)}, false)
	if !o.SameDayRereg() {
		t.Fatal("same-day rereg not detected")
	}
	o = mustObs(t, "a.com", day, PriorRegistration{}, &Rereg{Time: day.Next().At(0, 0, 1)}, false)
	if o.SameDayRereg() {
		t.Fatal("next-day rereg counted as same-day")
	}
}

// TestObservationRowLayout pins the dataset row and the deletion event to
// the sizes the study's memory budget is built on.
func TestObservationRowLayout(t *testing.T) {
	if got := unsafe.Sizeof(Observation{}); got != 40 {
		t.Fatalf("Observation is %d bytes, want 40", got)
	}
	if got := unsafe.Sizeof(DeletionEvent{}); got != 24 {
		t.Fatalf("DeletionEvent is %d bytes, want 24", got)
	}
}

// TestEqualComparesNames: two rows or events are Equal when their names are
// equal, wherever each is stored, and not when the names differ past their
// first byte or any other field differs.
func TestEqualComparesNames(t *testing.T) {
	day := simtime.Day{Year: 2018, Month: time.January, Dom: 2}
	at := day.At(19, 0, 3)
	name := "shop.example.com"
	apart := strings.Clone(name) // the same name in another allocation
	if unsafe.StringData(apart) == unsafe.StringData(name) {
		t.Fatal("strings.Clone shared the bytes")
	}
	prior := PriorRegistration{ID: 7, RegistrarID: 1000, Created: at.AddDate(-3, 0, 0)}
	rereg := &Rereg{Time: at, RegistrarID: 2000}

	o := mustObs(t, name, day, prior, rereg, false)
	rows := map[string]Observation{
		"name past its first byte": mustObs(t, "shop.example.net", day, prior, rereg, false),
		"shorter name":             mustObs(t, "shop.example.co", day, prior, rereg, false),
		"prior ID":                 mustObs(t, name, day, PriorRegistration{ID: 8, RegistrarID: 1000, Created: prior.Created}, rereg, false),
		"malicious label":          mustObs(t, name, day, prior, rereg, true),
		"no re-registration":       mustObs(t, name, day, prior, nil, false),
	}
	if same := mustObs(t, apart, day, prior, rereg, false); !o.Equal(same) || !same.Equal(o) {
		t.Fatal("rows with equal names in two allocations are not Equal")
	}
	for what, p := range rows {
		if o.Equal(p) || p.Equal(o) {
			t.Errorf("rows that differ in their %s are Equal", what)
		}
	}

	ev, err := NewDeletionEvent(7, name, at, 3)
	if err != nil {
		t.Fatal(err)
	}
	same, err := NewDeletionEvent(7, apart, at, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Equal(same) || !same.Equal(ev) {
		t.Fatal("events with equal names in two allocations are not Equal")
	}
	for what, f := range map[string]func() (DeletionEvent, error){
		"name past its first byte": func() (DeletionEvent, error) { return NewDeletionEvent(7, "shop.example.net", at, 3) },
		"longer name":              func() (DeletionEvent, error) { return NewDeletionEvent(7, name+"x", at, 3) },
		"object ID":                func() (DeletionEvent, error) { return NewDeletionEvent(8, name, at, 3) },
		"instant":                  func() (DeletionEvent, error) { return NewDeletionEvent(7, name, at.Add(time.Second), 3) },
		"rank":                     func() (DeletionEvent, error) { return NewDeletionEvent(7, name, at, 4) },
	} {
		other, err := f()
		if err != nil {
			t.Fatal(err)
		}
		if ev.Equal(other) || other.Equal(ev) {
			t.Errorf("events that differ in their %s are Equal", what)
		}
	}
}

// TestNameSharesCallerBytes: a row and an event keep the caller's name
// bytes, never a copy, and give the empty name back as empty.
func TestNameSharesCallerBytes(t *testing.T) {
	name := strings.Repeat("a", 251) + ".com" // the longest name they hold
	o := mustObs(t, name, simtime.Day{}, PriorRegistration{}, nil, false)
	ev, err := NewDeletionEvent(1, name, time.Time{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, got := range []string{o.Name(), ev.Name()} {
		if got != name || unsafe.StringData(got) != unsafe.StringData(name) {
			t.Fatalf("name of %d bytes came back as %d bytes, or copied", len(name), len(got))
		}
	}
	if empty := mustObs(t, "", simtime.Day{}, PriorRegistration{}, nil, false); empty.Name() != "" {
		t.Fatalf("the empty name came back as %q", empty.Name())
	}
}

// TestObservationRoundTrip checks that every accessor returns what
// NewObservation was given, at second precision and in UTC.
func TestObservationRoundTrip(t *testing.T) {
	day := simtime.Day{Year: 2018, Month: time.January, Dom: 2}
	cet := time.FixedZone("CET", 3600)
	prior := PriorRegistration{
		ID:          1<<63 + 5,
		RegistrarID: 1<<16 - 1,
		Created:     time.Unix(0, 0).UTC(),
		Updated:     time.Date(2017, 11, 28, 7, 0, 0, 0, cet),
		Expiry:      time.Date(2017, 10, 1, 0, 0, 0, 999, time.UTC),
	}
	rereg := &Rereg{Time: time.Date(2018, 1, 2, 19, 0, 3, 0, time.UTC), RegistrarID: 1}
	o := mustObs(t, "shop.example.com", day, prior, rereg, true)

	want := prior
	want.Updated = prior.Updated.UTC()
	want.Expiry = prior.Expiry.Truncate(time.Second)
	if got := o.Prior(); got != want {
		t.Fatalf("Prior() = %+v, want %+v", got, want)
	}
	if o.PriorID() != want.ID || o.PriorRegistrar() != want.RegistrarID ||
		o.PriorCreated() != want.Created || o.PriorUpdated() != want.Updated || o.PriorExpiry() != want.Expiry {
		t.Fatalf("per-field accessors disagree with Prior(): %+v", o)
	}
	if o.TLD() != COM || o.DeleteDay() != day {
		t.Fatalf("TLD %q, day %v", o.TLD(), o.DeleteDay())
	}
	if !o.Reregistered() || o.ReregTime() != rereg.Time || o.ReregRegistrar() != 1 || !o.Malicious() {
		t.Fatalf("rereg %v at %v by %d, malicious %v", o.Reregistered(), o.ReregTime(), o.ReregRegistrar(), o.Malicious())
	}
	if again := mustObs(t, "shop.example.com", day, o.Prior(), rereg, true); !again.Equal(o) {
		t.Fatal("a row rebuilt from its own accessors differs")
	}

	plain := mustObs(t, "nodot", simtime.Day{}, PriorRegistration{}, nil, false)
	if plain.Reregistered() || plain.Malicious() || plain.TLD() != "" || plain.DeleteDay() != (simtime.Day{}) {
		t.Fatalf("zero-ish row: %+v", plain)
	}
	if !plain.PriorCreated().IsZero() {
		t.Fatalf("the zero instant came back as %v", plain.PriorCreated())
	}

	// Both ends of the delete day's and the registrar IDs' ranges.
	for _, d := range []simtime.Day{{Year: 1970, Month: time.January, Dom: 2}, {Year: 2149, Month: time.June, Dom: 6}} {
		for _, id := range []int{0, 1, 1<<16 - 1} {
			at := d.At(19, 0, 0)
			if at.After(lastStored) {
				at = lastStored
			}
			o := mustObs(t, "a.com", d, PriorRegistration{RegistrarID: id}, &Rereg{Time: at, RegistrarID: id}, false)
			if o.DeleteDay() != d || o.PriorRegistrar() != id || o.ReregRegistrar() != id || !o.Reregistered() {
				t.Fatalf("day %v, registrar %d read back as %v, %d, %d", d, id, o.DeleteDay(), o.PriorRegistrar(), o.ReregRegistrar())
			}
		}
	}
}

func TestNewObservationRefusesUnrepresentable(t *testing.T) {
	day := simtime.Day{Year: 2018, Month: time.January, Dom: 2}
	cases := map[string]func() (Observation, error){
		"prior registrar 65 536": func() (Observation, error) {
			return NewObservation("a.com", day, PriorRegistration{RegistrarID: 1 << 16}, nil, false)
		},
		"prior registrar -1": func() (Observation, error) {
			return NewObservation("a.com", day, PriorRegistration{RegistrarID: -1}, nil, false)
		},
		"rereg registrar 65 536": func() (Observation, error) {
			return NewObservation("a.com", day, PriorRegistration{}, &Rereg{RegistrarID: 1 << 16}, false)
		},
		"rereg registrar -65 535 (wraps to 1)": func() (Observation, error) {
			return NewObservation("a.com", day, PriorRegistration{}, &Rereg{RegistrarID: -(1<<16 - 1)}, false)
		},
		"delete day number 0": func() (Observation, error) {
			return NewObservation("a.com", simtime.Day{Year: 1970, Month: 1, Dom: 1}, PriorRegistration{}, nil, false)
		},
		"delete day number -1": func() (Observation, error) {
			return NewObservation("a.com", simtime.Day{Year: 1969, Month: 12, Dom: 31}, PriorRegistration{}, nil, false)
		},
		"delete day number 65 536": func() (Observation, error) {
			return NewObservation("a.com", simtime.Day{Year: 2149, Month: 6, Dom: 7}, PriorRegistration{}, nil, false)
		},
		"delete day 30 February": func() (Observation, error) {
			return NewObservation("a.com", simtime.Day{Year: 2018, Month: 2, Dom: 30}, PriorRegistration{}, nil, false)
		},
		"malicious without a re-registration": func() (Observation, error) {
			return NewObservation("a.com", day, PriorRegistration{}, nil, true)
		},
		"prior created before 1970": func() (Observation, error) {
			return NewObservation("a.com", day, PriorRegistration{Created: time.Date(1969, 12, 31, 23, 59, 59, 0, time.UTC)}, nil, false)
		},
		"prior updated past the stored range": func() (Observation, error) {
			return NewObservation("a.com", day, PriorRegistration{Updated: lastStored.Add(time.Second)}, nil, false)
		},
		"prior expiry in year 1 but not the zero time": func() (Observation, error) {
			return NewObservation("a.com", day, PriorRegistration{Expiry: time.Time{}.Add(time.Second)}, nil, false)
		},
		"rereg time past the stored range": func() (Observation, error) {
			return NewObservation("a.com", day, PriorRegistration{}, &Rereg{Time: lastStored.Add(time.Second)}, false)
		},
		"a name of 256 bytes": func() (Observation, error) {
			return NewObservation("a.com"+strings.Repeat("m", 251), day, PriorRegistration{}, nil, false)
		},
	}
	for name, build := range cases {
		if o, err := build(); err == nil {
			t.Errorf("%s: accepted as %+v", name, o)
		} else if !strings.Contains(err.Error(), "a.com") {
			t.Errorf("%s: error %q does not name the row", name, err)
		}
	}
}

func TestDeletionEventTLD(t *testing.T) {
	ev, err := NewDeletionEvent(1, "a.b.net", time.Time{}, 0)
	if err != nil || ev.TLD() != NET {
		t.Fatalf("TLD() = %q", ev.TLD())
	}
}

// lastStored is the last instant a stored instant can stand for.
var lastStored = time.Date(2106, 2, 7, 6, 28, 14, 0, time.UTC)

// TestDeletionEventRoundTrip: Time and Rank return what NewDeletionEvent was
// given, in UTC, at both ends of each range and for the zero time.
func TestDeletionEventRoundTrip(t *testing.T) {
	cet := time.FixedZone("CET", 3600)
	cases := []struct {
		at   time.Time
		rank int
	}{
		{time.Date(2018, 1, 2, 19, 0, 3, 0, time.UTC), 41_000},
		{time.Date(2018, 1, 2, 20, 0, 3, 0, cet), 1},
		{time.Unix(0, 0), 0},
		{lastStored, 1<<32 - 1},
		{time.Time{}, 0},
	}
	for _, c := range cases {
		ev, err := NewDeletionEvent(1<<32-1, "shop.example.com", c.at, c.rank)
		if err != nil {
			t.Fatalf("NewDeletionEvent(%v, %d): %v", c.at, c.rank, err)
		}
		if ev.DomainID() != 1<<32-1 || ev.Name() != "shop.example.com" || ev.TLD() != COM {
			t.Fatalf("event %+v", ev)
		}
		if got := ev.Time(); got != c.at.UTC() || got.Location() != time.UTC || got.IsZero() != c.at.IsZero() {
			t.Fatalf("Time() = %v, want %v in UTC", got, c.at.UTC())
		}
		if ev.Rank() != c.rank {
			t.Fatalf("Rank() = %d, want %d", ev.Rank(), c.rank)
		}
		if again, err := NewDeletionEvent(ev.DomainID(), ev.Name(), ev.Time(), ev.Rank()); err != nil || !again.Equal(ev) {
			t.Fatalf("an event rebuilt from its own accessors differs: %+v, %v", again, err)
		}
	}
}

func TestNewDeletionEventRefusesUnrepresentable(t *testing.T) {
	ok := time.Date(2018, 1, 2, 19, 0, 3, 0, time.UTC)
	cases := map[string]struct {
		id   uint64
		name string
		at   time.Time
		rank int
	}{
		"one second before 1970":           {7, "a.com", time.Unix(-1, 0), 0},
		"one second past the last instant": {7, "a.com", lastStored.Add(time.Second), 0},
		"year 1 but not the zero time":     {7, "a.com", time.Time{}.Add(time.Second), 0},
		"a 999 ns fraction":                {7, "a.com", ok.Add(999), 0},
		"a fraction on the zero second":    {7, "a.com", time.Time{}.Add(1), 0},
		"rank -1":                          {7, "a.com", ok, -1},
		"rank 1<<32":                       {7, "a.com", ok, 1 << 32},
		"object ID 1<<32":                  {1 << 32, "a.com", ok, 0},
		"a name of 256 bytes":              {7, "a.com" + strings.Repeat("m", 251), ok, 0},
	}
	for name, c := range cases {
		if ev, err := NewDeletionEvent(c.id, c.name, c.at, c.rank); err == nil {
			t.Errorf("%s: accepted as %v rank %d", name, ev.Time(), ev.Rank())
		}
	}
}
