package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
	"sort"
	"time"

	"dropzero/internal/model"
	"dropzero/internal/registry"
	"dropzero/internal/simtime"
	"dropzero/internal/zone"
)

// Mutation payload encoding: a hand-rolled binary codec rather than gob,
// because the Drop-second hot path appends tens of records per simulated
// second and gob's per-message type preamble roughly triples the bytes. The
// layout is a fixed field order with varints:
//
//	kind u8
//	name uvarint-len + bytes
//	id uvarint · registrarID varint
//	created/updated/expiry/time: unix-seconds varint + nanos uvarint
//	status u8 · deleteDay (year varint, month u8, dom u8) · rank varint
//	registrar fields (wireAddRegistrarBin only; see below)
//
// Times round-trip as instants: the zero time.Time encodes as its Unix
// second (-62135596800) and decodes back to a value for which IsZero()
// holds, preserving the "zero means keep / none" sentinels the registry
// records use. Decoding is defensive everywhere — the torn-write fuzz test
// feeds this arbitrary bytes and a panic would be a recovery bug.
//
// MutAddRegistrar originally carried its registrar as a length-prefixed gob
// blob; gob cannot be told apart from the binary layout by sniffing, so the
// binary form claims a fresh wire kind byte instead of reusing kind 1. New
// appends always write wireAddRegistrarBin; the decoder accepts both
// spellings forever, keeping pre-upgrade segments replayable while the
// append and replay hot paths never touch encoding/gob.

// wireAddRegistrarBin is the on-wire kind byte of a MutAddRegistrar record
// whose registrar payload uses the hand-rolled binary codec (IANAID varint,
// then name, the six contact strings and the service URL, each
// uvarint-len-prefixed). Outside the valid MutKind range, never to be
// reused for a future kind.
const wireAddRegistrarBin byte = 0x41

// wireAddZoneBin is the on-wire kind byte of a MutAddZone record: the common
// mutation fields (all zero/empty) followed by the zone config (name, TLD
// list, lifecycle, drop, policy kind, shuffle salt). Like
// wireAddRegistrarBin it sits outside the valid MutKind range and is never
// to be reused for a future kind.
const wireAddZoneBin byte = 0x42

// appendUvarint/appendVarint wrap binary's append helpers for symmetry.
func appendTime(b []byte, t time.Time) []byte {
	b = binary.AppendVarint(b, t.Unix())
	return binary.AppendUvarint(b, uint64(t.Nanosecond()))
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendRegistrar serialises r after b with the same varint/string
// primitives as the mutation fields. Shared by the WAL codec and the v2
// snapshot's meta section.
func appendRegistrar(b []byte, r *model.Registrar) []byte {
	b = binary.AppendVarint(b, int64(r.IANAID))
	b = appendString(b, r.Name)
	b = appendString(b, r.Contact.Org)
	b = appendString(b, r.Contact.Email)
	b = appendString(b, r.Contact.Street)
	b = appendString(b, r.Contact.City)
	b = appendString(b, r.Contact.Country)
	b = appendString(b, r.Contact.Phone)
	return appendString(b, r.Service)
}

// appendZone serialises z after b with the same varint/string primitives as
// the mutation fields. Shared by the WAL codec and the v3 snapshot's meta
// section. Field order is part of the on-disk format.
func appendZone(b []byte, z *zone.Config) []byte {
	b = appendString(b, z.Name)
	b = binary.AppendUvarint(b, uint64(len(z.TLDs)))
	for _, t := range z.TLDs {
		b = appendString(b, string(t))
	}
	lc := &z.Lifecycle
	b = binary.AppendVarint(b, int64(lc.RedemptionDays))
	b = binary.AppendVarint(b, int64(lc.PendingDeleteDays))
	b = binary.AppendVarint(b, int64(lc.DefaultGraceDays))
	b = binary.AppendVarint(b, int64(lc.BatchHour))
	b = binary.AppendVarint(b, int64(lc.BatchMinute))
	// GraceDays in ascending registrar-ID order so equal configs encode to
	// equal bytes.
	ids := make([]int, 0, len(lc.GraceDays))
	for id := range lc.GraceDays {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	b = binary.AppendUvarint(b, uint64(len(ids)))
	for _, id := range ids {
		b = binary.AppendVarint(b, int64(id))
		b = binary.AppendVarint(b, int64(lc.GraceDays[id]))
	}
	dc := &z.Drop
	b = binary.AppendVarint(b, int64(dc.StartHour))
	b = binary.AppendVarint(b, int64(dc.StartMinute))
	b = binary.AppendUvarint(b, math.Float64bits(dc.BaseRatePerSec))
	b = binary.AppendUvarint(b, math.Float64bits(dc.RateJitter))
	b = binary.AppendUvarint(b, math.Float64bits(dc.DayRateSpread))
	b = binary.AppendUvarint(b, math.Float64bits(dc.StallProb))
	b = binary.AppendVarint(b, int64(dc.StallSeconds))
	b = appendString(b, string(z.Policy))
	return binary.AppendUvarint(b, z.Salt)
}

// appendMutation serialises m after b.
func appendMutation(b []byte, m *registry.Mutation) ([]byte, error) {
	k := byte(m.Kind)
	switch m.Kind {
	case registry.MutAddRegistrar:
		k = wireAddRegistrarBin
	case registry.MutAddZone:
		k = wireAddZoneBin
	}
	b = append(b, k)
	b = appendString(b, m.Name)
	b = binary.AppendUvarint(b, m.ID)
	b = binary.AppendVarint(b, int64(m.RegistrarID))
	b = appendTime(b, m.Created)
	b = appendTime(b, m.Updated)
	b = appendTime(b, m.Expiry)
	b = append(b, byte(m.Status))
	b = binary.AppendVarint(b, int64(m.DeleteDay.Year))
	b = append(b, byte(m.DeleteDay.Month), byte(m.DeleteDay.Dom))
	b = appendTime(b, m.Time)
	b = binary.AppendVarint(b, int64(m.Rank))
	if m.Kind == registry.MutAddRegistrar {
		b = appendRegistrar(b, &m.Registrar)
	}
	if m.Kind == registry.MutAddZone {
		b = appendZone(b, &m.Zone)
	}
	return b, nil
}

// decoder reads the codec's primitives with bounds checking.
type decoder struct {
	b []byte
}

var errTruncated = fmt.Errorf("journal: truncated mutation payload")

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		return 0, errTruncated
	}
	d.b = d.b[n:]
	return v, nil
}

func (d *decoder) varint() (int64, error) {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		return 0, errTruncated
	}
	d.b = d.b[n:]
	return v, nil
}

func (d *decoder) byte() (byte, error) {
	if len(d.b) == 0 {
		return 0, errTruncated
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c, nil
}

func (d *decoder) str() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(len(d.b)) {
		return "", errTruncated
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s, nil
}

func (d *decoder) time() (time.Time, error) {
	sec, err := d.varint()
	if err != nil {
		return time.Time{}, err
	}
	nsec, err := d.uvarint()
	if err != nil {
		return time.Time{}, err
	}
	if nsec >= 1e9 {
		return time.Time{}, fmt.Errorf("journal: nanosecond field out of range: %d", nsec)
	}
	return time.Unix(sec, int64(nsec)).UTC(), nil
}

func (d *decoder) zone() (zone.Config, error) {
	var z zone.Config
	var err error
	if z.Name, err = d.str(); err != nil {
		return z, err
	}
	ntld, err := d.uvarint()
	if err != nil {
		return z, err
	}
	if ntld > 1024 {
		return z, fmt.Errorf("journal: unreasonable zone TLD count %d", ntld)
	}
	for i := uint64(0); i < ntld; i++ {
		t, err := d.str()
		if err != nil {
			return z, err
		}
		z.TLDs = append(z.TLDs, model.TLD(t))
	}
	ints := []*int{
		&z.Lifecycle.RedemptionDays, &z.Lifecycle.PendingDeleteDays,
		&z.Lifecycle.DefaultGraceDays, &z.Lifecycle.BatchHour, &z.Lifecycle.BatchMinute,
	}
	for _, p := range ints {
		v, err := d.varint()
		if err != nil {
			return z, err
		}
		*p = int(v)
	}
	ngrace, err := d.uvarint()
	if err != nil {
		return z, err
	}
	if ngrace > 1<<20 {
		return z, fmt.Errorf("journal: unreasonable zone grace count %d", ngrace)
	}
	if ngrace > 0 {
		z.Lifecycle.GraceDays = make(map[int]int, ngrace)
	}
	for i := uint64(0); i < ngrace; i++ {
		id, err := d.varint()
		if err != nil {
			return z, err
		}
		days, err := d.varint()
		if err != nil {
			return z, err
		}
		z.Lifecycle.GraceDays[int(id)] = int(days)
	}
	hm := []*int{&z.Drop.StartHour, &z.Drop.StartMinute}
	for _, p := range hm {
		v, err := d.varint()
		if err != nil {
			return z, err
		}
		*p = int(v)
	}
	floats := []*float64{&z.Drop.BaseRatePerSec, &z.Drop.RateJitter, &z.Drop.DayRateSpread, &z.Drop.StallProb}
	for _, p := range floats {
		bits, err := d.uvarint()
		if err != nil {
			return z, err
		}
		*p = math.Float64frombits(bits)
	}
	stall, err := d.varint()
	if err != nil {
		return z, err
	}
	z.Drop.StallSeconds = int(stall)
	pol, err := d.str()
	if err != nil {
		return z, err
	}
	z.Policy = zone.PolicyKind(pol)
	if z.Salt, err = d.uvarint(); err != nil {
		return z, err
	}
	return z, nil
}

func (d *decoder) registrar() (model.Registrar, error) {
	var r model.Registrar
	id, err := d.varint()
	if err != nil {
		return r, err
	}
	r.IANAID = int(id)
	fields := []*string{
		&r.Name,
		&r.Contact.Org, &r.Contact.Email, &r.Contact.Street,
		&r.Contact.City, &r.Contact.Country, &r.Contact.Phone,
		&r.Service,
	}
	for _, f := range fields {
		if *f, err = d.str(); err != nil {
			return r, err
		}
	}
	return r, nil
}

// decodeMutation parses one mutation payload into *m, overwriting whatever
// it held (replay decodes into reused slots). It never panics on malformed
// input; any structural problem comes back as an error.
func decodeMutation(b []byte, m *registry.Mutation) error {
	*m = registry.Mutation{}
	d := &decoder{b: b}

	kind, err := d.byte()
	if err != nil {
		return err
	}
	binReg := kind == wireAddRegistrarBin
	switch {
	case binReg:
		m.Kind = registry.MutAddRegistrar
	case kind == wireAddZoneBin:
		m.Kind = registry.MutAddZone
	default:
		m.Kind = registry.MutKind(kind)
	}
	if m.Name, err = d.str(); err != nil {
		return err
	}
	if m.ID, err = d.uvarint(); err != nil {
		return err
	}
	rid, err := d.varint()
	if err != nil {
		return err
	}
	m.RegistrarID = int(rid)
	if m.Created, err = d.time(); err != nil {
		return err
	}
	if m.Updated, err = d.time(); err != nil {
		return err
	}
	if m.Expiry, err = d.time(); err != nil {
		return err
	}
	st, err := d.byte()
	if err != nil {
		return err
	}
	m.Status = model.Status(st)
	year, err := d.varint()
	if err != nil {
		return err
	}
	month, err := d.byte()
	if err != nil {
		return err
	}
	dom, err := d.byte()
	if err != nil {
		return err
	}
	m.DeleteDay = simtime.Day{Year: int(year), Month: time.Month(month), Dom: int(dom)}
	if m.Time, err = d.time(); err != nil {
		return err
	}
	rank, err := d.varint()
	if err != nil {
		return err
	}
	m.Rank = int(rank)
	if m.Kind == registry.MutAddZone {
		if m.Zone, err = d.zone(); err != nil {
			return err
		}
	}
	if m.Kind == registry.MutAddRegistrar {
		if binReg {
			if m.Registrar, err = d.registrar(); err != nil {
				return err
			}
		} else {
			// Pre-upgrade segment: the registrar rode as a gob blob.
			blob, err := d.str()
			if err != nil {
				return err
			}
			if err := gob.NewDecoder(bytes.NewReader([]byte(blob))).Decode(&m.Registrar); err != nil {
				return fmt.Errorf("journal: decode registrar: %w", err)
			}
		}
	}
	if len(d.b) != 0 {
		return fmt.Errorf("journal: %d trailing bytes after mutation payload", len(d.b))
	}
	return nil
}
