package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"dropzero/internal/binwire"
	"dropzero/internal/model"
	"dropzero/internal/registry"
	"dropzero/internal/zone"
)

// Mutation payload encoding: a hand-rolled binary codec over binwire's
// fields, because the Drop-second hot path appends tens of records per
// simulated second and a self-describing encoding's per-message preamble
// roughly triples the bytes. The layout is a fixed field order:
//
//	kind u8
//	name uvarint-len + bytes
//	id uvarint · registrarID varint
//	created/updated/expiry/time: unix-seconds varint + nanos uvarint
//	status u8 · deleteDay (year varint, month u8, dom u8) · rank varint
//	registrar fields (wireAddRegistrarBin) or zone config (wireAddZoneBin)
//
// Times round-trip as instants, the zero time.Time included, preserving the
// "zero means keep / none" sentinels the registry records use. Decoding is
// defensive everywhere — the torn-write fuzz test feeds this arbitrary bytes
// and a panic would be a recovery bug.
//
// MutAddRegistrar and MutAddZone claim wire kind bytes of their own, outside
// the MutKind range. Wire kind 1 — MutAddRegistrar's own number — belonged to
// the first encoding of that record, whose registrar rode as a gob blob; gob
// cannot be told from the binary layout by sniffing, which is why the binary
// form moved to a fresh byte. Nothing has written kind 1 since, and the
// decoder refuses it by name (errGobRegistrar) rather than carry
// encoding/gob for it.

// wireAddRegistrarBin is the on-wire kind byte of a MutAddRegistrar record:
// the common mutation fields followed by the registrar (IANAID varint, then
// name, the six contact strings and the service URL, each
// uvarint-len-prefixed). Never to be reused for a future kind.
const wireAddRegistrarBin byte = 0x41

var errGobRegistrar = errors.New("journal: add-registrar record in the retired gob encoding (wire kind 1) is no longer read; replay this log with a build that reads it and take a snapshot there")

// wireAddZoneBin is the on-wire kind byte of a MutAddZone record: the common
// mutation fields (all zero/empty) followed by the zone config (name, TLD
// list, lifecycle, drop, policy kind, shuffle salt). Like
// wireAddRegistrarBin it sits outside the valid MutKind range and is never
// to be reused for a future kind.
const wireAddZoneBin byte = 0x42

// appendRegistrar serialises r after b with the same varint/string
// primitives as the mutation fields. Shared by the WAL codec and the v2
// snapshot's meta section.
func appendRegistrar(b []byte, r *model.Registrar) []byte {
	b = binary.AppendVarint(b, int64(r.IANAID))
	b = binwire.AppendString(b, r.Name)
	b = binwire.AppendString(b, r.Contact.Org)
	b = binwire.AppendString(b, r.Contact.Email)
	b = binwire.AppendString(b, r.Contact.Street)
	b = binwire.AppendString(b, r.Contact.City)
	b = binwire.AppendString(b, r.Contact.Country)
	b = binwire.AppendString(b, r.Contact.Phone)
	return binwire.AppendString(b, r.Service)
}

// appendZone serialises z after b with the same varint/string primitives as
// the mutation fields. Shared by the WAL codec and the v3 snapshot's meta
// section. Field order is part of the on-disk format.
func appendZone(b []byte, z *zone.Config) []byte {
	b = binwire.AppendString(b, z.Name)
	b = binary.AppendUvarint(b, uint64(len(z.TLDs)))
	for _, t := range z.TLDs {
		b = binwire.AppendString(b, string(t))
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
	b = binwire.AppendString(b, string(z.Policy))
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
	b = binwire.AppendString(b, m.Name)
	b = binary.AppendUvarint(b, m.ID)
	b = binary.AppendVarint(b, int64(m.RegistrarID))
	b = binwire.AppendTime(b, m.Created)
	b = binwire.AppendTime(b, m.Updated)
	b = binwire.AppendTime(b, m.Expiry)
	b = append(b, byte(m.Status))
	b = binwire.AppendDay(b, m.DeleteDay)
	b = binwire.AppendTime(b, m.Time)
	b = binary.AppendVarint(b, int64(m.Rank))
	if m.Kind == registry.MutAddRegistrar {
		b = appendRegistrar(b, &m.Registrar)
	}
	if m.Kind == registry.MutAddZone {
		b = appendZone(b, &m.Zone)
	}
	return b, nil
}

// decodeZone reads what appendZone wrote.
func decodeZone(d *binwire.Decoder) (z zone.Config) {
	z.Name = d.Str()
	for i, n := 0, d.Count(1024); i < n && d.Err() == nil; i++ {
		z.TLDs = append(z.TLDs, model.TLD(d.Str()))
	}
	lc := &z.Lifecycle
	lc.RedemptionDays, lc.PendingDeleteDays, lc.DefaultGraceDays = d.Int(), d.Int(), d.Int()
	lc.BatchHour, lc.BatchMinute = d.Int(), d.Int()
	if n := d.Count(1 << 20); n > 0 {
		lc.GraceDays = make(map[int]int, n)
		for i := 0; i < n && d.Err() == nil; i++ {
			id := d.Int()
			lc.GraceDays[id] = d.Int()
		}
	}
	dc := &z.Drop
	dc.StartHour, dc.StartMinute = d.Int(), d.Int()
	for _, p := range []*float64{&dc.BaseRatePerSec, &dc.RateJitter, &dc.DayRateSpread, &dc.StallProb} {
		*p = math.Float64frombits(d.Uvarint())
	}
	dc.StallSeconds = d.Int()
	z.Policy = zone.PolicyKind(d.Str())
	z.Salt = d.Uvarint()
	return z
}

// decodeRegistrar reads what appendRegistrar wrote.
func decodeRegistrar(d *binwire.Decoder) (r model.Registrar) {
	r.IANAID = d.Int()
	for _, f := range []*string{
		&r.Name,
		&r.Contact.Org, &r.Contact.Email, &r.Contact.Street,
		&r.Contact.City, &r.Contact.Country, &r.Contact.Phone,
		&r.Service,
	} {
		*f = d.Str()
	}
	return r
}

// decodeMutation parses one mutation payload into *m, overwriting whatever
// it held (replay decodes into reused slots). It never panics on malformed
// input; any structural problem comes back as an error.
func decodeMutation(b []byte, m *registry.Mutation) error {
	d := binwire.NewDecoder(b)
	*m = registry.Mutation{}
	switch kind := d.Byte(); kind {
	case wireAddRegistrarBin:
		m.Kind = registry.MutAddRegistrar
	case wireAddZoneBin:
		m.Kind = registry.MutAddZone
	case byte(registry.MutAddRegistrar):
		return errGobRegistrar
	default:
		m.Kind = registry.MutKind(kind)
	}
	m.Name = d.Str()
	m.ID = d.Uvarint()
	m.RegistrarID = d.Int()
	m.Created, m.Updated, m.Expiry = d.Time(), d.Time(), d.Time()
	m.Status = model.Status(d.Byte())
	m.DeleteDay = d.Day()
	m.Time = d.Time()
	m.Rank = d.Int()
	switch m.Kind {
	case registry.MutAddZone:
		m.Zone = decodeZone(d)
	case registry.MutAddRegistrar:
		m.Registrar = decodeRegistrar(d)
	}
	if err := d.Finish(); err != nil {
		return fmt.Errorf("journal: mutation payload: %w", err)
	}
	return nil
}
