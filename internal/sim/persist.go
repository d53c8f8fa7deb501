package sim

import (
	"encoding/binary"
	"fmt"

	"dropzero/internal/binwire"
	"dropzero/internal/measure"
	"dropzero/internal/model"
	"dropzero/internal/simtime"
)

// The simulation driver journals its own state alongside the registry's:
// after each day's pending-list collection it appends the pipeline's
// CollectDelta as an application record, and every snapshot carries the
// full pipeline state plus the count of completed collections. Everything
// else the driver holds — RNG streams, market decisions, oracle labels,
// ground-truth metadata — is deliberately NOT persisted: it is recomputed
// on resume by replaying the decision process against the recovered
// deletion archive, which is cheaper than journaling it and keeps the WAL
// to one record per day outside the store's own mutations.
//
// Why the pipeline is the exception: its lookups ran against the registry
// as it was before later Drops purged those very registrations, so no
// amount of replay against the recovered (newer) store can reproduce them.

// dayRecord is one application WAL record: the outcome of CollectDaily for
// study day index Day.
type dayRecord struct {
	// Day is the zero-based study day index the collection ran for.
	Day int
	// Delta is the pipeline state change the collection produced.
	Delta measure.CollectDelta
}

// A day record and a checkpoint travel as one blob layout over binwire's
// fields — the vocabulary of the WAL records and snapshot sections they
// ride in:
//
//	magic "DZSIM1\n" · kind u8 (1 checkpoint, 2 day record)
//	days varint — collections included (checkpoint) or study day index
//	day — the delta's day; the zero day in a checkpoint
//	two entry lists, each uvarint count + entries — a checkpoint's pending
//	set and none; a day record's added and resolved entries
//	stats — the eight counters, a varint each
//	entry: name · TLD · delete day · prior present u8 (0/1) and, when
//	present, ID uvarint · registrar varint · created/updated/expiry
//
// Before this format both were encoding/gob streams; those are refused by
// name (a gob stream cannot start with the magic).
const (
	blobMagic = "DZSIM1\n"

	blobCheckpoint byte = 1
	blobDayRecord  byte = 2
)

// statFields lists a Stats's counters in blob order.
func statFields(s *measure.Stats) [8]*int {
	return [...]*int{&s.ListEntries, &s.Lookups, &s.RDAPErrors, &s.WHOISFallbacks,
		&s.FallbackFailed, &s.Reregistered, &s.NotReregistered, &s.OracleLookups}
}

func appendEntries(b []byte, es []measure.PendingEntry) []byte {
	b = binary.AppendUvarint(b, uint64(len(es)))
	for i := range es {
		e := &es[i]
		b = binwire.AppendString(b, e.Name)
		b = binwire.AppendString(b, string(e.TLD))
		b = binwire.AppendDay(b, e.DeleteDay)
		if e.Prior == nil {
			b = append(b, 0)
			continue
		}
		b = append(b, 1)
		b = binary.AppendUvarint(b, e.Prior.ID)
		b = binary.AppendVarint(b, int64(e.Prior.RegistrarID))
		b = binwire.AppendTime(b, e.Prior.Created)
		b = binwire.AppendTime(b, e.Prior.Updated)
		b = binwire.AppendTime(b, e.Prior.Expiry)
	}
	return b
}

func decodeEntries(d *binwire.Decoder) []measure.PendingEntry {
	n := d.Count(1 << 30)
	if n == 0 {
		return nil
	}
	es := make([]measure.PendingEntry, 0, min(n, 1<<16))
	for i := 0; i < n && d.Err() == nil; i++ {
		e := measure.PendingEntry{Name: d.Str(), TLD: model.TLD(d.Str()), DeleteDay: d.Day()}
		switch present := d.Byte(); present {
		case 0:
		case 1:
			e.Prior = &model.PriorRegistration{ID: d.Uvarint(), RegistrarID: d.Int(),
				Created: d.Time(), Updated: d.Time(), Expiry: d.Time()}
		default:
			d.Fail(fmt.Errorf("bad prior flag %d", present))
		}
		es = append(es, e)
	}
	return es
}

// encodeBlob writes r under the given kind; a checkpoint travels as the day
// record whose added entries are its pending set.
func encodeBlob(kind byte, r *dayRecord) []byte {
	b := append([]byte(blobMagic), kind)
	b = binary.AppendVarint(b, int64(r.Day))
	b = binwire.AppendDay(b, r.Delta.Day)
	b = appendEntries(appendEntries(b, r.Delta.Added), r.Delta.Resolved)
	for _, f := range statFields(&r.Delta.Stats) {
		b = binary.AppendVarint(b, int64(*f))
	}
	return b
}

// decodeBlob parses a blob of the given kind; what names it in errors.
func decodeBlob(data []byte, kind byte, what string) (*dayRecord, error) {
	if len(data) <= len(blobMagic) || string(data[:len(blobMagic)]) != blobMagic {
		return nil, fmt.Errorf("sim: decode %s: no %q header: blobs written with encoding/gob, before this format, are no longer read — resume that study with the build that wrote it", what, blobMagic)
	}
	if data[len(blobMagic)] != kind {
		return nil, fmt.Errorf("sim: decode %s: blob of kind %d, want %d", what, data[len(blobMagic)], kind)
	}
	d := binwire.NewDecoder(data[len(blobMagic)+1:])
	r := &dayRecord{Day: d.Int()}
	r.Delta.Day, r.Delta.Added, r.Delta.Resolved = d.Day(), decodeEntries(d), decodeEntries(d)
	for _, f := range statFields(&r.Delta.Stats) {
		*f = d.Int()
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("sim: decode %s: %w", what, err)
	}
	return r, nil
}

func encodeDayRecord(r *dayRecord) []byte { return encodeBlob(blobDayRecord, r) }

func decodeDayRecord(data []byte) (*dayRecord, error) {
	return decodeBlob(data, blobDayRecord, "day record")
}

// encodeCheckpoint writes the application blob stored in every snapshot:
// the pipeline's State export after collectedDays study days' collections.
func encodeCheckpoint(collectedDays int, state measure.CollectDelta) []byte {
	return encodeBlob(blobCheckpoint, &dayRecord{Day: collectedDays, Delta: state})
}

// decodeCheckpoint reads a snapshot's blob back: Day is how many study days'
// collections the pipeline state in Delta already includes, where resume
// re-enters the day loop.
func decodeCheckpoint(data []byte) (*dayRecord, error) {
	r, err := decodeBlob(data, blobCheckpoint, "checkpoint")
	if err != nil {
		return nil, err
	}
	if len(r.Delta.Resolved) != 0 || r.Delta.Day != (simtime.Day{}) {
		return nil, fmt.Errorf("sim: decode checkpoint: carries a day record's fields")
	}
	return r, nil
}
