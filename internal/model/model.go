// Package model defines the data types shared by the registry substrate, the
// wire protocols, the measurement pipeline and the analysis core: domain
// registrations, registrar identities, and the per-domain observation record
// that the paper's dataset is made of.
package model

import (
	"fmt"
	"math"
	"strings"
	"time"
	"unsafe"

	"dropzero/internal/simtime"
)

// TLD is a top-level domain handled by the simulated registry. The paper
// measures .com; .net domains share the registry's single deletion process
// and show up as interleaved batches in the deletion order (§4.1).
type TLD string

// The two zones operated by the simulated Verisign-like registry.
const (
	COM TLD = "com"
	NET TLD = "net"
)

// TLDOf extracts the TLD from a fully qualified domain name, returning
// ok=false when the name has no dot or an empty suffix. It is purely
// structural: whether the suffix is a TLD some registry actually operates is
// the hosting store's zone registry's call, not the name's.
func TLDOf(name string) (TLD, bool) {
	i := strings.LastIndexByte(name, '.')
	if i < 0 || i == len(name)-1 {
		return "", false
	}
	return TLD(name[i+1:]), true
}

// Status is the lifecycle state of a registration, following the expiration
// pipeline described in the paper's prior work ("WHOIS Lost in
// Translation"): an expired domain passes through the auto-renew grace
// period, the redemption period and pendingDelete before it is purged.
type Status uint8

// Lifecycle states in chronological order.
const (
	StatusActive Status = iota
	StatusAutoRenew
	StatusRedemption
	StatusPendingDelete
	StatusDeleted
)

var statusNames = [...]string{
	StatusActive:        "active",
	StatusAutoRenew:     "autoRenewPeriod",
	StatusRedemption:    "redemptionPeriod",
	StatusPendingDelete: "pendingDelete",
	StatusDeleted:       "deleted",
}

// String returns the EPP-style status name.
func (s Status) String() string {
	if int(s) < len(statusNames) {
		return statusNames[s]
	}
	return fmt.Sprintf("Status(%d)", uint8(s))
}

// ParseStatus is the inverse of Status.String.
func ParseStatus(s string) (Status, error) {
	for i, n := range statusNames {
		if n == s {
			return Status(i), nil
		}
	}
	return 0, fmt.Errorf("model: unknown status %q", s)
}

// Domain is one registration as stored by the registry. A Domain is
// identified by its registry-assigned ID (the repository object ID);
// re-registering a deleted name produces a new Domain with a new ID.
type Domain struct {
	ID          uint64 // registry object ID, strictly increasing with creation
	Name        string // fully qualified, lowercase
	TLD         TLD
	RegistrarID int // IANA ID of the sponsoring registrar

	Created time.Time // registration instant, second precision
	Updated time.Time // "last updated" — the primary deletion-order key
	Expiry  time.Time // current expiration date

	Status Status
	// DeleteDay is the scheduled deletion day once the domain has entered
	// pendingDelete; the zero value means no deletion is scheduled.
	DeleteDay simtime.Day
}

// Registration is the part of d a lookup of its name reports.
func (d *Domain) Registration() PriorRegistration {
	return PriorRegistration{ID: d.ID, RegistrarID: d.RegistrarID, Created: d.Created, Updated: d.Updated, Expiry: d.Expiry}
}

// Age returns the duration the registration had existed at the reference
// instant (typically its deletion day).
func (d *Domain) Age(ref time.Time) time.Duration { return ref.Sub(d.Created) }

// AgeYears returns the registration age in whole years at ref, the bucketing
// Figure 8 of the paper uses (1 year ... 6+ years).
func (d *Domain) AgeYears(ref time.Time) int {
	const year = 365 * 24 * time.Hour
	y := int(d.Age(ref) / year)
	if y < 0 {
		return 0
	}
	return y
}

// Contact is the (often shared) contact record attached to a registrar
// accreditation. The paper clusters registrars into services by matching
// these details; drop-catch services own hundreds of accreditations that
// reuse the same organisation and email domain.
type Contact struct {
	Org     string
	Email   string
	Street  string
	City    string
	Country string
	Phone   string
}

// Registrar is one ICANN accreditation known to the registry.
type Registrar struct {
	IANAID  int
	Name    string
	Contact Contact
	// Service is the ground-truth operator label used by the simulator to
	// drive behaviour and by the accuracy ablations; the measurement pipeline
	// never reads it — it recovers clusters from Contact alone.
	Service string
}

// PriorRegistration is the metadata the measurement pipeline collects about
// an expiring registration three days before its scheduled deletion.
type PriorRegistration struct {
	ID          uint64
	RegistrarID int
	Created     time.Time
	Updated     time.Time
	Expiry      time.Time
}

// Rereg records a re-registration observed at the T+8-weeks lookup.
type Rereg struct {
	Time        time.Time
	RegistrarID int
}

// Observation is one row of the study dataset: a domain from the pending
// delete list, its prior registration metadata, and — if the name was taken
// again — the re-registration event.
//
// A study holds millions of these, so the row is a packed value (40 bytes,
// one pointer word) and a dataset is one contiguous []Observation: the name
// is the caller's string kept as its data pointer and a length byte (names
// are at most 255 bytes), instants are stored instants (simtime.PackTime) —
// second precision, as the RDAP data, the registry and the dataset's CSV
// have — the delete day is a stored day (simtime.Day.Pack), registrar IDs
// are 16 bits wide (IANA's are four digits), and the TLD is read off the
// name. Rows are built by NewObservation and read through the accessors.
// Compare rows with Equal: ==, slices.Equal and reflect.DeepEqual compare
// where the names are stored, not what they say.
type Observation struct {
	np             unsafe.Pointer // unsafe.StringData(name)
	priorID        uint64
	priorCreated   uint32
	priorUpdated   uint32
	priorExpiry    uint32
	reregAt        uint32 // zero unless flagRereg
	priorRegistrar uint16
	reregRegistrar uint16 // zero unless flagRereg
	deleteDay      uint16
	flags          uint8
	nameLen        uint8
}

const (
	flagRereg uint8 = 1 << iota
	flagMalicious
)

// NewObservation packs one dataset row. rereg is nil when the name had not
// been re-registered by the second lookup; malicious is the Safe
// Browsing-style label collected ≥9 weeks after the re-registration and must
// be false without one. Instants are stored as whole UTC seconds, fractions
// dropped. The row keeps name's bytes, not a copy. What a row cannot hold
// exactly — a name longer than 255 bytes, an instant outside the stored
// range, a registrar ID outside 0 … 65 535, a delete day outside 1970-01-02 …
// 2149-06-06 or not a calendar date (the zero Day, "none", fits) — is an
// error.
func NewObservation(name string, deleteDay simtime.Day, prior PriorRegistration, rereg *Rereg, malicious bool) (Observation, error) {
	day, ok := deleteDay.Pack()
	if !ok {
		return Observation{}, fmt.Errorf("model: %s: delete day %v not representable", name, deleteDay)
	}
	return NewObservationPacked(name, day, prior, rereg, malicious)
}

// NewObservationPacked is NewObservation with the delete day as
// simtime.Day.Pack stores it — as a pipeline's pending entry holds it — so
// no day is unpacked only to be packed again. Every uint16 is a stored day.
func NewObservationPacked(name string, deleteDay uint16, prior PriorRegistration, rereg *Rereg, malicious bool) (Observation, error) {
	if len(name) > math.MaxUint8 {
		return Observation{}, fmt.Errorf("model: %.32s…: name of %d bytes not representable", name, len(name))
	}
	at := [...]time.Time{prior.Created, prior.Updated, prior.Expiry, {}}
	registrar := [...]int{prior.RegistrarID, 0}
	if rereg != nil {
		at[3], registrar[1] = rereg.Time, rereg.RegistrarID
	}
	var stored [len(at)]uint32
	for i, t := range at {
		// Instants from a store are whole seconds already: only a fraction
		// is truncated, and packed again.
		v, ok := simtime.PackTime(t)
		if !ok {
			v, ok = simtime.PackTime(simtime.Trunc(t))
		}
		if !ok {
			return Observation{}, fmt.Errorf("model: %s: instant %v not representable", name, t)
		}
		stored[i] = v
	}
	for _, id := range registrar {
		if id < 0 || id > math.MaxUint16 {
			return Observation{}, fmt.Errorf("model: %s: registrar ID %d not representable", name, id)
		}
	}
	if rereg == nil && malicious {
		return Observation{}, fmt.Errorf("model: %s: malicious label without a re-registration", name)
	}
	o := Observation{
		np:             unsafe.Pointer(unsafe.StringData(name)),
		nameLen:        uint8(len(name)),
		priorID:        prior.ID,
		priorCreated:   stored[0],
		priorUpdated:   stored[1],
		priorExpiry:    stored[2],
		reregAt:        stored[3],
		priorRegistrar: uint16(registrar[0]),
		reregRegistrar: uint16(registrar[1]),
		deleteDay:      deleteDay,
	}
	if rereg != nil {
		o.flags = flagRereg
	}
	if malicious {
		o.flags |= flagMalicious
	}
	return o, nil
}

// Name is the fully qualified, lowercase domain name; it shares the bytes
// NewObservation was given.
func (o *Observation) Name() string { return unsafe.String((*byte)(o.np), o.nameLen) }

// TLD is the name's suffix, empty when the name has none.
func (o *Observation) TLD() TLD {
	tld, _ := TLDOf(o.Name())
	return tld
}

// Equal reports whether o and p are the same row: the same name and the same
// fields. Like time.Time.Equal, it is the comparison to use: == also compares
// where the two names are stored. It takes o by value so that
// slices.EqualFunc can take Observation.Equal.
func (o Observation) Equal(p Observation) bool {
	name := o.Name()
	o.np = p.np
	return o == p && name == p.Name()
}

// DeleteDay is the scheduled deletion day the pending-delete list announced.
func (o *Observation) DeleteDay() simtime.Day { return simtime.UnpackDay(o.deleteDay) }

// PriorID is the registry object ID of the expiring registration.
func (o *Observation) PriorID() uint64 { return o.priorID }

// PriorRegistrar is the IANA ID of the expiring registration's sponsor.
func (o *Observation) PriorRegistrar() int { return int(o.priorRegistrar) }

// PriorCreated is the expiring registration's creation instant.
func (o *Observation) PriorCreated() time.Time { return simtime.UnpackTime(o.priorCreated) }

// PriorUpdated is the expiring registration's "last updated" instant, the
// primary deletion-order key.
func (o *Observation) PriorUpdated() time.Time { return simtime.UnpackTime(o.priorUpdated) }

// PriorExpiry is the expiring registration's expiration date.
func (o *Observation) PriorExpiry() time.Time { return simtime.UnpackTime(o.priorExpiry) }

// Prior is the expiring registration's metadata in its unpacked form.
func (o *Observation) Prior() PriorRegistration {
	return PriorRegistration{
		ID:          o.priorID,
		RegistrarID: int(o.priorRegistrar),
		Created:     simtime.UnpackTime(o.priorCreated),
		Updated:     simtime.UnpackTime(o.priorUpdated),
		Expiry:      simtime.UnpackTime(o.priorExpiry),
	}
}

// Reregistered reports whether the second lookup found the name taken again.
func (o *Observation) Reregistered() bool { return o.flags&flagRereg != 0 }

// ReregTime is the re-registration instant; only meaningful when
// Reregistered.
func (o *Observation) ReregTime() time.Time { return simtime.UnpackTime(o.reregAt) }

// ReregRegistrar is the IANA ID of the re-registering accreditation; only
// meaningful when Reregistered.
func (o *Observation) ReregRegistrar() int { return int(o.reregRegistrar) }

// Malicious is the Safe Browsing-style label; always false unless
// Reregistered.
func (o *Observation) Malicious() bool { return o.flags&flagMalicious != 0 }

// SameDayRereg reports whether the domain was re-registered on its deletion
// day — the approximation prior work used for "drop-catch".
func (o *Observation) SameDayRereg() bool {
	return o.Reregistered() && simtime.DayOf(o.ReregTime()) == o.DeleteDay()
}

// DeletionEvent is the registry's ground-truth record of one deletion during
// a Drop. The simulator exports these so the ablation experiments can score
// the inference model against reality — something the paper could not do.
// Stores and studies hold one event per deleted name for their whole life, so
// the event is a packed value (24 bytes, one pointer word) built by
// NewDeletionEvent: the name is the caller's string kept as its data pointer
// and a length byte (names are at most 255 bytes), the object ID and the
// rank are 32 bits wide (the store's allocator stops at 2³²−1), the instant
// is a stored instant (simtime.PackTime), and the TLD is the name's suffix
// and is not stored. Compare events with Equal: ==, slices.Equal and
// reflect.DeepEqual compare where the names are stored, not what they say.
type DeletionEvent struct {
	np      unsafe.Pointer // unsafe.StringData(name)
	id      uint32
	at      uint32
	rank    uint32
	nameLen uint8
}

// NewDeletionEvent packs one deletion: id is the purged registration's
// object ID, at the exact instant the name became available, rank its
// 0-based position in that day's combined deletion queue. The event keeps
// name's bytes, not a copy. What the event cannot hold exactly — an ID or a
// rank outside 32 bits, a name longer than 255 bytes, an instant outside the
// stored range or with a sub-second part — is an error.
func NewDeletionEvent(id uint64, name string, at time.Time, rank int) (DeletionEvent, error) {
	if id > math.MaxUint32 {
		return DeletionEvent{}, fmt.Errorf("model: deletion of %s: object ID %d not representable", name, id)
	}
	if len(name) > math.MaxUint8 {
		return DeletionEvent{}, fmt.Errorf("model: deletion of %.32s…: name of %d bytes not representable", name, len(name))
	}
	stored, ok := simtime.PackTime(at)
	if !ok {
		return DeletionEvent{}, fmt.Errorf("model: deletion of %s: instant %v not representable", name, at)
	}
	if uint64(rank) > math.MaxUint32 { // negative ranks convert to the top of the range
		return DeletionEvent{}, fmt.Errorf("model: deletion of %s: rank %d not representable", name, rank)
	}
	return DeletionEvent{
		np:      unsafe.Pointer(unsafe.StringData(name)),
		id:      uint32(id),
		at:      stored,
		rank:    uint32(rank),
		nameLen: uint8(len(name)),
	}, nil
}

// DomainID is the registry object ID of the purged registration.
func (e *DeletionEvent) DomainID() uint64 { return uint64(e.id) }

// Name is the deleted name; it shares the bytes NewDeletionEvent was given.
func (e *DeletionEvent) Name() string { return unsafe.String((*byte)(e.np), e.nameLen) }

// Time is the exact instant the name became available, in UTC.
func (e *DeletionEvent) Time() time.Time { return simtime.UnpackTime(e.at) }

// Rank is the 0-based position in that day's combined deletion queue.
func (e *DeletionEvent) Rank() int { return int(e.rank) }

// TLD is the deleted name's TLD. The registry only deletes names it hosts,
// so the suffix is always present.
func (e *DeletionEvent) TLD() TLD {
	tld, _ := TLDOf(e.Name())
	return tld
}

// Equal reports whether e and f record the same deletion: the same name and
// the same fields. Like time.Time.Equal, it is the comparison to use: ==
// also compares where the two names are stored. It takes e by value so that
// slices.EqualFunc can take DeletionEvent.Equal.
func (e DeletionEvent) Equal(f DeletionEvent) bool {
	name := e.Name()
	e.np = f.np
	return e == f && name == f.Name()
}
