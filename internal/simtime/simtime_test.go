package simtime

import (
	"fmt"
	"math"
	"testing"
	"time"
)

func TestSimClockAdvance(t *testing.T) {
	start := time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC)
	c := NewSimClock(start)
	if !c.Now().Equal(start) {
		t.Fatalf("Now() = %v, want %v", c.Now(), start)
	}
	c.Advance(90 * time.Second)
	if got := c.Now(); !got.Equal(start.Add(90 * time.Second)) {
		t.Fatalf("after Advance: %v", got)
	}
}

func TestSimClockAdvanceNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Advance(-1) did not panic")
		}
	}()
	NewSimClock(time.Now()).Advance(-time.Second)
}

func TestSimClockSetBackwardPanics(t *testing.T) {
	c := NewSimClock(time.Date(2018, 1, 2, 0, 0, 0, 0, time.UTC))
	defer func() {
		if recover() == nil {
			t.Fatal("Set(earlier) did not panic")
		}
	}()
	c.Set(time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC))
}

func TestSimClockSetConvertsToUTC(t *testing.T) {
	loc := time.FixedZone("EST", -5*3600)
	c := NewSimClock(time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC))
	c.Set(time.Date(2018, 1, 1, 14, 0, 0, 0, loc)) // 19:00 UTC
	want := time.Date(2018, 1, 1, 19, 0, 0, 0, time.UTC)
	if !c.Now().Equal(want) {
		t.Fatalf("Now() = %v, want %v", c.Now(), want)
	}
	if c.Now().Location() != time.UTC {
		t.Fatalf("Now() location = %v, want UTC", c.Now().Location())
	}
}

func TestRealClockUTC(t *testing.T) {
	if loc := (RealClock{}).Now().Location(); loc != time.UTC {
		t.Fatalf("RealClock location = %v, want UTC", loc)
	}
}

func TestDayOfAndStart(t *testing.T) {
	ts := time.Date(2018, 2, 28, 23, 59, 59, 999, time.UTC)
	d := DayOf(ts)
	if d != (Day{2018, time.February, 28}) {
		t.Fatalf("DayOf = %+v", d)
	}
	if got := d.Start(); !got.Equal(time.Date(2018, 2, 28, 0, 0, 0, 0, time.UTC)) {
		t.Fatalf("Start = %v", got)
	}
}

func TestDayAt(t *testing.T) {
	d := Day{2018, time.January, 2}
	got := d.At(19, 30, 15)
	want := time.Date(2018, 1, 2, 19, 30, 15, 0, time.UTC)
	if !got.Equal(want) {
		t.Fatalf("At = %v, want %v", got, want)
	}
}

func TestDayNextAcrossMonth(t *testing.T) {
	d := Day{2018, time.January, 31}
	if n := d.Next(); n != (Day{2018, time.February, 1}) {
		t.Fatalf("Next = %+v", n)
	}
}

func TestDayNextAcrossYear(t *testing.T) {
	d := Day{2017, time.December, 31}
	if n := d.Next(); n != (Day{2018, time.January, 1}) {
		t.Fatalf("Next = %+v", n)
	}
}

func TestDayAddDays(t *testing.T) {
	d := Day{2018, time.January, 1}
	cases := []struct {
		n    int
		want Day
	}{
		{0, Day{2018, time.January, 1}},
		{1, Day{2018, time.January, 2}},
		{31, Day{2018, time.February, 1}},
		{-1, Day{2017, time.December, 31}},
		{58, Day{2018, time.February, 28}},
		{59, Day{2018, time.March, 1}}, // 2018 is not a leap year
	}
	for _, c := range cases {
		if got := d.AddDays(c.n); got != c.want {
			t.Errorf("AddDays(%d) = %+v, want %+v", c.n, got, c.want)
		}
	}
}

func TestDayAddDaysManyConsistentWithNext(t *testing.T) {
	d := Day{2018, time.January, 1}
	step := d
	for i := 1; i <= 400; i++ {
		step = step.Next()
		if got := d.AddDays(i); got != step {
			t.Fatalf("AddDays(%d) = %+v, want %+v", i, got, step)
		}
	}
}

func TestDayBefore(t *testing.T) {
	a := Day{2018, time.January, 2}
	b := Day{2018, time.January, 3}
	if !a.Before(b) || b.Before(a) || a.Before(a) {
		t.Fatal("Before ordering wrong")
	}
}

func TestDayCompareAgreesWithBefore(t *testing.T) {
	days := []Day{
		{2017, time.December, 31},
		{2018, time.January, 1},
		{2018, time.January, 2},
		{2018, time.February, 1},
		{2019, time.January, 1},
	}
	for _, a := range days {
		for _, b := range days {
			c := a.Compare(b)
			switch {
			case a.Before(b) && c >= 0:
				t.Errorf("Compare(%v, %v) = %d, want < 0", a, b, c)
			case b.Before(a) && c <= 0:
				t.Errorf("Compare(%v, %v) = %d, want > 0", a, b, c)
			case a == b && c != 0:
				t.Errorf("Compare(%v, %v) = %d, want 0", a, b, c)
			}
		}
	}
}

func TestDayString(t *testing.T) {
	if s := (Day{2018, time.February, 5}).String(); s != "2018-02-05" {
		t.Fatalf("String = %q", s)
	}
}

// AppendTo must print exactly what the %04d-%02d-%02d form does: over every
// stored day (1970-01-01 … 2149-06-06) and at the years where the padding
// changes or runs out.
func TestDayAppendToMatchesSprintf(t *testing.T) {
	check := func(d Day) {
		t.Helper()
		want := fmt.Sprintf("%04d-%02d-%02d", d.Year, int(d.Month), d.Dom)
		buf := []byte("x")
		if got := d.AppendTo(buf); string(got) != "x"+want {
			t.Fatalf("AppendTo(%+v) = %q, want %q", d, got[1:], want)
		}
		if got := d.String(); got != want {
			t.Fatalf("String(%+v) = %q, want %q", d, got, want)
		}
	}
	for n := int64(0); n <= math.MaxUint16; n++ {
		check(DayNumbered(n))
	}
	for _, y := range []int{0, 999, 10000} {
		check(Day{y, time.January, 1})
		check(Day{y, time.December, 31})
	}
	buf := make([]byte, 0, 16)
	if allocs := testing.AllocsPerRun(100, func() {
		buf = Day{2018, time.February, 5}.AppendTo(buf[:0])
	}); allocs != 0 {
		t.Fatalf("AppendTo allocates %.0f times into a sized buffer", allocs)
	}
}

// ParseDay reads back what AppendTo writes, day by day across a year
// boundary, and refuses any other form.
func TestParseDay(t *testing.T) {
	for d := (Day{2018, time.December, 25}); d.Before(Day{2019, time.January, 8}); d = d.Next() {
		got, err := ParseDay(string(d.AppendTo(nil)))
		if err != nil || got != d {
			t.Fatalf("ParseDay(%q) = %+v, %v", d.AppendTo(nil), got, err)
		}
	}
	if _, err := ParseDay("05/02/2018"); err == nil {
		t.Fatal("bad format accepted")
	}
}

func TestDayPackRoundTripAndOrder(t *testing.T) {
	days := []Day{
		{},
		{Year: 1970, Month: 1, Dom: 2},
		{Year: 2017, Month: 12, Dom: 31},
		{Year: 2018, Month: 1, Dom: 1},
		{Year: 2018, Month: 1, Dom: 2},
		{Year: 2020, Month: 2, Dom: 29},
		{Year: 2149, Month: 6, Dom: 6},
	}
	packed := make([]uint16, len(days))
	for i, d := range days {
		p, ok := d.Pack()
		if !ok {
			t.Fatalf("%v does not pack", d)
		}
		if got := UnpackDay(p); got != d {
			t.Fatalf("UnpackDay(Pack(%v)) = %v", d, got)
		}
		packed[i] = p
	}
	if packed[0] != 0 || packed[1] != 1 || packed[len(packed)-1] != 1<<16-1 {
		t.Fatalf("the zero Day, 1970-01-02 and 2149-06-06 pack to %d, %d, %d", packed[0], packed[1], packed[len(packed)-1])
	}
	// Calendar days (everything after the zero Day) order like Compare.
	for i := 2; i < len(days); i++ {
		if !(packed[i-1] < packed[i]) || days[i-1].Compare(days[i]) >= 0 {
			t.Fatalf("%v (%d) and %v (%d) out of order", days[i-1], packed[i-1], days[i], packed[i])
		}
	}
	// Every stored value is some day's, and that day packs back to it.
	for v := 0; v < 1<<16; v++ {
		if p, ok := UnpackDay(uint16(v)).Pack(); !ok || p != uint16(v) {
			t.Fatalf("stored day %d unpacks to %v, which packs to %d, %v", v, UnpackDay(uint16(v)), p, ok)
		}
	}
	for _, d := range []Day{
		{Year: 1970, Month: 1, Dom: 1}, // day number 0 is "none"
		{Year: 1969, Month: 12, Dom: 31},
		{Year: 2149, Month: 6, Dom: 7}, // day number 65 536
		{Year: 9999, Month: 12, Dom: 31},
		{Year: 2018, Month: 2, Dom: 30}, // would come back as 2 March
		{Year: 2018, Month: 13, Dom: 1},
		{Year: 2018, Month: 1, Dom: 0},
		{Year: 2018},
	} {
		if p, ok := d.Pack(); ok {
			t.Errorf("%+v packs to %d", d, p)
		}
	}
}

func TestTrunc(t *testing.T) {
	ts := time.Date(2018, 1, 1, 12, 0, 0, 999999999, time.UTC)
	if got := Trunc(ts); got.Nanosecond() != 0 || got.Second() != 0 {
		t.Fatalf("Trunc = %v", got)
	}
	loc := time.FixedZone("X", 3600)
	got := Trunc(time.Date(2018, 1, 1, 1, 0, 0, 500, loc))
	if got.Location() != time.UTC || got.Hour() != 0 {
		t.Fatalf("Trunc non-UTC = %v", got)
	}
}

func TestSimClockConcurrentReads(t *testing.T) {
	c := NewSimClock(time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC))
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			c.Advance(time.Millisecond)
		}
	}()
	for i := 0; i < 1000; i++ {
		_ = c.Now()
	}
	<-done
}

// TestDayNumber: Number counts days from 1970-01-01, DayNumbered inverts it,
// and AddDays(n) is +n on the number — across month ends, leap days and the
// epoch.
func TestDayNumber(t *testing.T) {
	for _, c := range []struct {
		day  Day
		want int64
	}{
		{Day{1970, time.January, 1}, 0},
		{Day{1969, time.December, 31}, -1},
		{Day{2018, time.January, 8}, 17539},
		{Day{2149, time.June, 6}, 65535},
	} {
		if got := c.day.Number(); got != c.want {
			t.Errorf("%v.Number() = %d, want %d", c.day, got, c.want)
		}
		if got := DayNumbered(c.want); got != c.day {
			t.Errorf("DayNumbered(%d) = %v, want %v", c.want, got, c.day)
		}
	}
	d := Day{2015, time.December, 25}
	for n := -800; n <= 800; n += 7 {
		if got, want := d.AddDays(n).Number(), d.Number()+int64(n); got != want {
			t.Fatalf("%v.AddDays(%d).Number() = %d, want %d", d, n, got, want)
		}
	}
	if got := (Day{2018, time.February, 30}).Number(); got != (Day{2018, time.March, 2}).Number() {
		t.Errorf("30 February numbers as %d, want 2 March's", got)
	}
}

// TestPackTimeRoundTrip: the stored-instant form holds the zero time and
// every whole second from 1970-01-01T00:00:00Z through 2106-02-07T06:28:14Z,
// comes back in UTC, and refuses everything else instead of rounding it.
func TestPackTimeRoundTrip(t *testing.T) {
	last := time.Date(2106, 2, 7, 6, 28, 14, 0, time.UTC)
	for _, at := range []time.Time{
		{},
		time.Unix(0, 0),
		time.Date(2018, 1, 2, 20, 0, 3, 0, time.FixedZone("CET", 3600)),
		last,
	} {
		v, ok := PackTime(at)
		if !ok {
			t.Fatalf("PackTime(%v) refused", at)
		}
		got := UnpackTime(v)
		if !got.Equal(at) || got.Location() != time.UTC || got.IsZero() != at.IsZero() || (v == 0) != at.IsZero() {
			t.Fatalf("PackTime(%v) = %d, back as %v", at, v, got)
		}
		if UnixOf(v) != at.Unix() {
			t.Fatalf("UnixOf(%d) = %d, want %d", v, UnixOf(v), at.Unix())
		}
	}
	for _, at := range []time.Time{
		time.Unix(-1, 0),
		last.Add(time.Second),
		last.Add(-time.Second).Add(999),
		time.Time{}.Add(1),
		time.Time{}.Add(time.Second),
	} {
		if v, ok := PackTime(at); ok {
			t.Errorf("PackTime(%v) = %d, want a refusal", at, v)
		}
	}
}
