// Package simtime provides the virtual-time substrate used throughout
// dropzero. The registry, the registrar agents and the measurement pipeline
// all observe time through the Clock interface so that a 56-day measurement
// study can run in milliseconds of wall time while still producing
// second-precision timestamps like the ones Verisign's RDAP pilot exposed.
package simtime

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// Clock is the minimal time source shared by all components. Timestamps are
// always UTC; the registry rounds them to whole seconds before persisting,
// matching the precision of the RDAP data the paper worked with.
type Clock interface {
	// Now returns the current instant in UTC.
	Now() time.Time
}

// RealClock reads the wall clock. It is used by the interactive commands
// (cmd/dropserve) where components run against real time.
type RealClock struct{}

// Now implements Clock.
func (RealClock) Now() time.Time { return time.Now().UTC() }

// SimClock is a manually advanced virtual clock. The zero value is not
// usable; construct with NewSimClock. SimClock is safe for concurrent use:
// server goroutines may read it while the simulation driver advances it.
type SimClock struct {
	mu  sync.RWMutex
	now time.Time
}

// NewSimClock returns a SimClock starting at the given instant (converted to
// UTC).
func NewSimClock(start time.Time) *SimClock {
	return &SimClock{now: start.UTC()}
}

// Now implements Clock.
func (c *SimClock) Now() time.Time {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.now
}

// Advance moves the clock forward by d. It panics if d is negative: virtual
// time, like real time, never runs backwards, and a negative advance is
// always a simulation-driver bug.
func (c *SimClock) Advance(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("simtime: Advance(%v): negative duration", d))
	}
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// Set jumps the clock to t. It panics if t is before the current time.
func (c *SimClock) Set(t time.Time) {
	t = t.UTC()
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.Before(c.now) {
		panic(fmt.Sprintf("simtime: Set(%v): before current time %v", t, c.now))
	}
	c.now = t
}

// Day identifies a UTC calendar day. It is the unit the Drop operates on:
// every domain is deleted on exactly one Day, and the envelope model is
// computed per Day.
type Day struct {
	Year  int
	Month time.Month
	Dom   int
}

// DayOf returns the UTC day containing t.
func DayOf(t time.Time) Day {
	t = t.UTC()
	y, m, d := t.Date()
	return Day{Year: y, Month: m, Dom: d}
}

// Start returns midnight UTC at the beginning of the day.
func (d Day) Start() time.Time {
	return time.Date(d.Year, d.Month, d.Dom, 0, 0, 0, 0, time.UTC)
}

// At returns the instant hh:mm:ss on this day.
func (d Day) At(hh, mm, ss int) time.Time {
	return time.Date(d.Year, d.Month, d.Dom, hh, mm, ss, 0, time.UTC)
}

// Next returns the following calendar day.
func (d Day) Next() Day { return DayOf(d.Start().Add(36 * time.Hour)) }

// AddDays returns the day n days later (n may be negative).
func (d Day) AddDays(n int) Day {
	return DayOf(d.Start().Add(time.Duration(n)*24*time.Hour + 12*time.Hour).Add(-12 * time.Hour))
}

// Before reports whether d is strictly earlier than other.
func (d Day) Before(other Day) bool {
	return d.Start().Before(other.Start())
}

// Compare orders calendar days chronologically: negative when d precedes
// other, zero when equal, positive when d follows. Both days must be
// calendar-normalised (as DayOf and AddDays produce); unlike Before it never
// materialises a time.Time, which matters on the registry's due-index sweep
// paths where it runs per bucket per day.
func (d Day) Compare(other Day) int {
	if d.Year != other.Year {
		return d.Year - other.Year
	}
	if d.Month != other.Month {
		return int(d.Month) - int(other.Month)
	}
	return d.Dom - other.Dom
}

// Pack returns d as a stored day — the 16-bit form the registry's records and
// the study dataset's rows share: 0 for the zero Day, otherwise d's Number,
// 1970-01-02 through 2149-06-06 (1970-01-01 itself would be number 0). Any
// other day, and any Day that is not a calendar date (30 February would come
// back as 2 March), does not fit: ok is false and nothing is normalised or
// wrapped. Stored calendar days order like Compare.
func (d Day) Pack() (v uint16, ok bool) {
	if d == (Day{}) {
		return 0, true
	}
	if n := d.Number(); n >= 1 && n <= math.MaxUint16 && DayNumbered(n) == d {
		return uint16(n), true
	}
	return 0, false
}

// UnpackDay is the inverse of Pack.
func UnpackDay(v uint16) Day {
	if v == 0 {
		return Day{}
	}
	return DayNumbered(int64(v))
}

// Number returns d as a count of days since 1970-01-01 (negative before it):
// the Unix second of d's midnight over 86 400. UTC has no DST and Go's time
// has no leap seconds, so AddDays(n) adds exactly n to it. A Day that is not
// calendar-normalised numbers as the day time.Date normalises it to.
func (d Day) Number() int64 { return d.Start().Unix() / 86400 }

// DayNumbered is the inverse of Number.
func DayNumbered(n int64) Day { return DayOf(time.Unix(n*86400, 0)) }

// PackTime returns t as a stored instant — the 32-bit form the registry's
// records, the deletion events and the study dataset's rows share: 0 for the
// zero time.Time, otherwise its Unix second plus one (so Unix 0 stays
// distinct from "unset"), 1970-01-01T00:00:00Z through 2106-02-07T06:28:14Z.
// Any other instant, and any sub-second part, does not fit: ok is false and
// nothing is rounded or wrapped.
func PackTime(t time.Time) (v uint32, ok bool) {
	if t.IsZero() {
		return 0, true
	}
	if sec := t.Unix(); t.Nanosecond() == 0 && sec >= 0 && sec < math.MaxUint32 {
		return uint32(sec) + 1, true
	}
	return 0, false
}

// UnixOf is the Unix second a stored instant stands for.
func UnixOf(v uint32) int64 {
	if v == 0 {
		return -62135596800 // the zero time.Time
	}
	return int64(v) - 1
}

// UnpackTime is the inverse of PackTime, in UTC.
func UnpackTime(v uint32) time.Time { return time.Unix(UnixOf(v), 0).UTC() }

// String formats the day as YYYY-MM-DD.
func (d Day) String() string { return string(d.AppendTo(nil)) }

// AppendTo appends the day's String form to b without allocating beyond b's
// growth — the per-line form list and feed renderers use.
func (d Day) AppendTo(b []byte) []byte {
	y, m := d.Year, int(d.Month)
	if uint(y) > 9999 || uint(m) > 99 || uint(d.Dom) > 99 {
		return fmt.Appendf(b, "%04d-%02d-%02d", y, m, d.Dom)
	}
	return append(b, byte('0'+y/1000), byte('0'+y/100%10), byte('0'+y/10%10), byte('0'+y%10),
		'-', byte('0'+m/10), byte('0'+m%10), '-', byte('0'+d.Dom/10), byte('0'+d.Dom%10))
}

// ParseDay is the inverse of AppendTo for the years 0000–9999: it parses a
// YYYY-MM-DD day string.
func ParseDay(s string) (Day, error) {
	t, err := time.Parse(time.DateOnly, s)
	if err != nil {
		return Day{}, err
	}
	return DayOf(t), nil
}

// Trunc rounds t down to whole seconds in UTC. All registry-visible
// timestamps pass through Trunc, mirroring the second precision of the RDAP
// timestamps in the paper's dataset.
func Trunc(t time.Time) time.Time {
	return t.UTC().Truncate(time.Second)
}
