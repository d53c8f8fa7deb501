// Package binwire is the field vocabulary of the repository's binary
// formats — WAL records, snapshot sections, the study's checkpoint blobs:
// uvarints and varints (encoding/binary's), strings as a uvarint length and
// the bytes, instants as Unix seconds and nanoseconds, days as year, month,
// day of month. Encoding appends to a slice; decoding reads from one that
// came off a disk or a socket, so it checks every bound and never panics.
package binwire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"dropzero/internal/simtime"
)

// AppendString appends s as a uvarint length and the bytes.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendTime appends t as an instant: Unix seconds (varint) and nanoseconds
// (uvarint). The zero time.Time encodes as its Unix second (-62135596800)
// and decodes back to a value for which IsZero() holds.
func AppendTime(b []byte, t time.Time) []byte {
	b = binary.AppendVarint(b, t.Unix())
	return binary.AppendUvarint(b, uint64(t.Nanosecond()))
}

// AppendDay appends d as year (varint), month and day of month (a byte each).
func AppendDay(b []byte, d simtime.Day) []byte {
	b = binary.AppendVarint(b, int64(d.Year))
	return append(b, byte(d.Month), byte(d.Dom))
}

// ErrTruncated is the error of a Decoder whose input ended inside a field.
var ErrTruncated = errors.New("truncated payload")

// Decoder reads fields off the front of a byte slice. The first failure
// sticks: every later read returns the zero value and Err reports that
// first failure, so a layout decodes as a run of reads and one check — but a
// loop over a decoded count must stop on Err itself (Count bounds the count
// by the input, not the work).
type Decoder struct {
	b   []byte
	err error
}

// NewDecoder returns a decoder over b, which it does not modify.
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b} }

// Fail records err as the decoder's failure unless one is recorded already.
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.b = nil
}

// Err returns the first failure, nil while every read succeeded.
func (d *Decoder) Err() error { return d.err }

// Finish is Err for a layout that must use its input up: bytes left over
// are a failure too.
func (d *Decoder) Finish() error {
	if d.err == nil && len(d.b) != 0 {
		d.err = fmt.Errorf("%d trailing bytes", len(d.b))
	}
	return d.err
}

func (d *Decoder) Uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.Fail(ErrTruncated)
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *Decoder) Varint() int64 {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.Fail(ErrTruncated)
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Int reads a varint as an int.
func (d *Decoder) Int() int { return int(d.Varint()) }

func (d *Decoder) Byte() byte {
	if len(d.b) == 0 {
		d.Fail(ErrTruncated)
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c
}

// Count reads the uvarint count of a run of elements that follows in the
// same input. A count above limit, or above the bytes left — an element
// takes at least one — is a failure.
func (d *Decoder) Count(limit int) int {
	n := d.Uvarint()
	if n > uint64(limit) || n > uint64(len(d.b)) {
		d.Fail(fmt.Errorf("count %d exceeds its bound", n))
		return 0
	}
	return int(n)
}

// Str reads a string written by AppendString.
func (d *Decoder) Str() string { return string(d.View()) }

// View is Str without the copy: a view of the decoder's input.
func (d *Decoder) View() []byte {
	n := d.Uvarint()
	if n > uint64(len(d.b)) {
		d.Fail(ErrTruncated)
		return nil
	}
	v := d.b[:n:n]
	d.b = d.b[n:]
	return v
}

// Time reads an instant written by AppendTime, in UTC.
func (d *Decoder) Time() time.Time {
	sec, nsec := d.Varint(), d.Uvarint()
	if nsec >= 1e9 {
		d.Fail(fmt.Errorf("nanosecond field out of range: %d", nsec))
		return time.Time{}
	}
	if d.err != nil {
		return time.Time{}
	}
	return time.Unix(sec, int64(nsec)).UTC()
}

// Day reads a day written by AppendDay.
func (d *Decoder) Day() simtime.Day {
	return simtime.Day{Year: d.Int(), Month: time.Month(d.Byte()), Dom: int(d.Byte())}
}
