package binwire

import (
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"dropzero/internal/simtime"
)

func TestRoundTrip(t *testing.T) {
	at := time.Date(2018, 1, 8, 19, 0, 7, 123456789, time.UTC)
	day := simtime.Day{Year: 2018, Month: time.March, Dom: 31}
	b := binary.AppendUvarint(nil, 1<<40)
	b = binary.AppendVarint(b, -77)
	b = append(b, 0xfe)
	b = AppendString(b, "drop.com")
	b = AppendString(b, "")
	b = AppendTime(b, at)
	b = AppendTime(b, time.Time{})
	b = AppendDay(b, day)
	b = binary.AppendUvarint(b, 2)
	b = append(b, 'x', 'y')

	d := NewDecoder(b)
	if u, v, c := d.Uvarint(), d.Int(), d.Byte(); u != 1<<40 || v != -77 || c != 0xfe {
		t.Errorf("numbers: %d %d %#x", u, v, c)
	}
	if s, e := d.Str(), d.Str(); s != "drop.com" || e != "" {
		t.Errorf("strings: %q %q", s, e)
	}
	if got, zero := d.Time(), d.Time(); !got.Equal(at) || got.Location() != time.UTC || !zero.IsZero() {
		t.Errorf("times: %v %v", got, zero)
	}
	if got := d.Day(); got != day {
		t.Errorf("day: %v", got)
	}
	if n := d.Count(2); n != 2 || d.Byte() != 'x' || d.Byte() != 'y' {
		t.Errorf("count: %d", n)
	}
	if err := d.Finish(); err != nil {
		t.Errorf("finish: %v", err)
	}
}

// The first failure sticks, later reads are zero values, and the input is
// not walked any further.
func TestFailureSticks(t *testing.T) {
	b := AppendString(nil, "whole")
	b = binary.AppendUvarint(b, 99) // a string that claims more than is left
	b = append(b, "short"...)
	d := NewDecoder(b)
	if s := d.Str(); s != "whole" || d.Err() != nil {
		t.Fatalf("first string: %q, %v", s, d.Err())
	}
	if s := d.Str(); s != "" || !errors.Is(d.Err(), ErrTruncated) {
		t.Fatalf("overlong string: %q, %v", s, d.Err())
	}
	if d.Uvarint() != 0 || d.Int() != 0 || d.Byte() != 0 || d.Str() != "" || !d.Time().IsZero() || d.Day() != (simtime.Day{}) || d.Count(10) != 0 {
		t.Error("a failed decoder returned a non-zero value")
	}
	mine := errors.New("mine")
	d.Fail(mine)
	if !errors.Is(d.Err(), ErrTruncated) || !errors.Is(d.Finish(), ErrTruncated) {
		t.Errorf("a later failure replaced the first: %v", d.Err())
	}
}

func TestBounds(t *testing.T) {
	for name, tc := range map[string]struct {
		b    []byte
		read func(*Decoder)
	}{
		"empty uvarint":        {nil, func(d *Decoder) { d.Uvarint() }},
		"unterminated uvarint": {[]byte{0x80, 0x80}, func(d *Decoder) { d.Uvarint() }},
		"overlong uvarint":     {[]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, func(d *Decoder) { d.Uvarint() }},
		"empty varint":         {nil, func(d *Decoder) { d.Varint() }},
		"empty byte":           {nil, func(d *Decoder) { d.Byte() }},
		"nanoseconds":          {binary.AppendUvarint([]byte{0}, 1e9), func(d *Decoder) { d.Time() }},
		"time cut":             {[]byte{2}, func(d *Decoder) { d.Time() }},
		"day cut":              {[]byte{2, 1}, func(d *Decoder) { d.Day() }},
		"count over limit":     {[]byte{3, 1, 2, 3}, func(d *Decoder) { d.Count(2) }},
		"count over input":     {[]byte{4, 1, 2, 3}, func(d *Decoder) { d.Count(100) }},
		"trailing bytes":       {[]byte{1, 2}, func(d *Decoder) { d.Byte() }},
	} {
		d := NewDecoder(tc.b)
		tc.read(d)
		if d.Finish() == nil {
			t.Errorf("%s: no failure", name)
		}
	}
	d := NewDecoder([]byte{3, 1, 2, 3})
	if n := d.Count(3); n != 3 || d.Err() != nil {
		t.Errorf("count at both bounds: %d, %v", n, d.Err())
	}
}
