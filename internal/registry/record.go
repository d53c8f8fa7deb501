package registry

import (
	"crypto/subtle"
	"errors"
	"fmt"
	"math"
	"time"
	"unsafe"

	"dropzero/internal/model"
	"dropzero/internal/simtime"
)

// record is the shard-resident form of one registration: a model.Domain
// squeezed into 32 bytes with a single pointer word (the name's bytes),
// stored in its shard's table and addressable only under that shard's lock
// (see table for the validity rule). Time is integer throughout: timestamps
// are stored instants (simtime.PackTime: 0 = the zero time.Time, otherwise
// Unix second + 1, so Unix 0 stays distinct from "unset"), the delete day is
// a day number (packDay). The object ID is 32 bits: the store's allocator is
// the only source of IDs. The name is the caller's own string, kept as its
// data pointer and length: nothing is copied and nothing outlives what a
// string header would keep alive. The TLD is the name's last label, and the
// transfer code is a state from which the code is recomputed (authInfo).
// The due index holds the record's ref, not the other way round: a record
// carries no links (dueindex.go). Records never leave the package: Get, Each,
// PendingDeletions, snapshot capture and observer events hand out
// model.Domain values built by domain().
type record struct {
	np        *byte  // unsafe.StringData(name); nil in a free slot
	id        uint32 // the store's allocator hands out 1, 2, …
	created   uint32
	updated   uint32
	expiry    uint32
	registrar int32
	deleteDay uint16 // days since 1970-01-01; 0 = no deletion scheduled
	nameLen   uint8
	meta      uint8 // authState<<6 | status
}

// errUnrepresentable marks a registration the store cannot hold exactly: an
// object ID, instant, delete day, registrar ID, status, name or TLD outside
// the stored widths. Mutators, replay and restore refuse it before the
// record or its index entry is touched; nothing is ever rounded or wrapped.
var errUnrepresentable = errors.New("registry: registration not representable")

// newRecord converts d to its stored form, or fails when any field would
// not come back from domain() exactly: an object ID of 2³² or more,
// sub-second or out-of-range timestamps, a registrar ID beyond int32, a
// delete day outside the day numbers, a status beyond six bits, a name
// longer than 255 bytes, a TLD that is not the name's last label of at most
// 63 bytes. Timestamps in another location are stored as the same instant
// in UTC, as simtime.Trunc does on live paths.
func newRecord(d *model.Domain) (record, error) {
	if len(d.Name) > 255 {
		return record{}, fmt.Errorf("%w: name of %d bytes", errUnrepresentable, len(d.Name))
	}
	if tld, ok := model.TLDOf(d.Name); !ok || tld != d.TLD || len(tld) > 63 {
		return record{}, fmt.Errorf("%w: %q is not under TLD %q", errUnrepresentable, d.Name, d.TLD)
	}
	if d.ID > math.MaxUint32 {
		return record{}, fmt.Errorf("%w: object ID %d", errUnrepresentable, d.ID)
	}
	registrar, errRegistrar := registrar32(d.RegistrarID)
	day, errDay := packDay(d.DeleteDay)
	created, errCreated := storedTime(d.Created)
	updated, errUpdated := storedTime(d.Updated)
	expiry, errExpiry := storedTime(d.Expiry)
	r := record{id: uint32(d.ID), created: created, updated: updated, expiry: expiry, registrar: registrar, deleteDay: day}
	r.setName(d.Name)
	errStatus := r.setStatus(d.Status)
	for _, err := range [...]error{errRegistrar, errDay, errCreated, errUpdated, errExpiry, errStatus} {
		if err != nil {
			return record{}, fmt.Errorf("%w: %q", err, d.Name)
		}
	}
	return r, nil
}

// domain materialises the record as the model.Domain value it was built
// from.
func (r *record) domain() model.Domain {
	return model.Domain{
		ID:          uint64(r.id),
		Name:        r.name(),
		TLD:         r.tld(),
		RegistrarID: int(r.registrar),
		Created:     simtime.UnpackTime(r.created),
		Updated:     simtime.UnpackTime(r.updated),
		Expiry:      simtime.UnpackTime(r.expiry),
		Status:      r.status(),
		DeleteDay:   simtime.UnpackDay(r.deleteDay),
	}
}

// setName points r at name's bytes. The caller has checked that the length
// fits a byte (newRecord).
func (r *record) setName(name string) { r.np, r.nameLen = unsafe.StringData(name), uint8(len(name)) }

// name is the registration's name; it shares the bytes setName was given.
// A free slot's is empty.
func (r *record) name() string { return unsafe.String(r.np, r.nameLen) }

// tld is the name's last label; it shares the name's bytes.
func (r *record) tld() model.TLD {
	tld, _ := model.TLDOf(r.name())
	return tld
}

// statusMask is the low six bits of record.meta.
const statusMask = 1<<6 - 1

func (r *record) status() model.Status { return model.Status(r.meta & statusMask) }

// setStatus stores s, or refuses one wider than six bits and leaves r as it
// was.
func (r *record) setStatus(s model.Status) error {
	if s > statusMask {
		return fmt.Errorf("%w: status %d", errUnrepresentable, s)
	}
	r.meta = r.meta&^statusMask | uint8(s)
	return nil
}

func (r *record) auth() authState { return authState(r.meta >> 6) }

func (r *record) setAuth(a authState) { r.meta = r.meta&statusMask | uint8(a)<<6 }

// registrar32 is a registrar ID in its stored width.
func registrar32(id int) (int32, error) {
	if int(int32(id)) != id {
		return 0, fmt.Errorf("%w: registrar ID %d", errUnrepresentable, id)
	}
	return int32(id), nil
}

const daySecs = 86400 // a UTC day: no DST, and Go's clock has no leap seconds

// storedTime is t as a stored instant (simtime.PackTime), or the store's
// refusal of one that does not fit.
func storedTime(t time.Time) (uint32, error) {
	if v, ok := simtime.PackTime(t); ok {
		return v, nil
	}
	return 0, fmt.Errorf("%w: timestamp %v", errUnrepresentable, t)
}

// packDay is simtime.Day.Pack — 0 for the zero Day, otherwise the day number,
// 1970-01-02 through 2149-06-06 — with what does not fit, a Day that is not a
// calendar date included, as the store's refusal.
func packDay(d simtime.Day) (uint16, error) {
	if v, ok := d.Pack(); ok {
		return v, nil
	}
	return 0, fmt.Errorf("%w: delete day %v", errUnrepresentable, d)
}

// authState says where a registration's transfer authorisation code comes
// from. The code is a takeover credential, never exposed through RDAP or
// WHOIS, and only ever takes one of three shapes — so the store keeps the
// shape and recomputes the code instead of holding a string per domain.
type authState uint8

const (
	authNone        authState = iota // seeded: no code was minted
	authCreated                      // appendAuthInfo(id, name)
	authTransferred                  // appendAuthInfo(id^authRotate, name): rotated by a transfer
	authStored                       // a restored code matching neither: held in shard.authStored
)

// authRotate perturbs the object ID when a transfer rotates the code.
const authRotate = 0x5bf0

const authInfoLen = len("AX-") + 12

// appendAuthInfo appends a registration's transfer code (splitmix64 over
// the object ID and name, base-36 rendered). Deterministic so equal
// simulations stay equal; opaque enough that it cannot be guessed from
// public data.
func appendAuthInfo(dst []byte, id uint64, name string) []byte {
	h := id + 0x9e3779b97f4a7c15
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 0x100000001b3
	}
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h ^= h >> 31
	const digits = "0123456789abcdefghijklmnopqrstuvwxyz"
	dst = append(dst, "AX-"...)
	for i := 0; i < authInfoLen-len("AX-"); i++ {
		dst = append(dst, digits[h%36])
		h /= 36
	}
	return dst
}

// appendAuthInfo appends r's transfer code to dst, nothing when none was
// minted. The caller holds sh's lock (either mode).
func (sh *shard) appendAuthInfo(dst []byte, r *record) []byte {
	switch r.auth() {
	case authCreated:
		return appendAuthInfo(dst, uint64(r.id), r.name())
	case authTransferred:
		return appendAuthInfo(dst, uint64(r.id^authRotate), r.name())
	case authStored:
		return append(dst, sh.authStored[r.name()]...)
	}
	return dst
}

// authInfo is appendAuthInfo as a string.
func (sh *shard) authInfo(r *record) string {
	var buf [authInfoLen]byte
	return string(sh.appendAuthInfo(buf[:0], r))
}

// authMatches reports whether presented is r's transfer code, taking the
// same time wherever the two differ. A registration without a code matches
// nothing, the empty string included.
func (sh *shard) authMatches(r *record, presented string) bool {
	code := sh.authInfo(r)
	return code != "" && subtle.ConstantTimeCompare([]byte(code), []byte(presented)) == 1
}

// setAuthInfo records code as r's transfer code: as a state when it is one
// of the two derivations (or absent), as a copy otherwise. The caller holds
// sh's write lock.
func (sh *shard) setAuthInfo(r *record, code []byte) {
	var buf [authInfoLen]byte
	switch {
	case len(code) == 0:
		r.setAuth(authNone)
	case string(code) == string(appendAuthInfo(buf[:0], uint64(r.id), r.name())):
		r.setAuth(authCreated)
	case string(code) == string(appendAuthInfo(buf[:0], uint64(r.id^authRotate), r.name())):
		r.setAuth(authTransferred)
	default:
		r.setAuth(authStored)
		if sh.authStored == nil {
			sh.authStored = make(map[string]string)
		}
		sh.authStored[r.name()] = string(code)
	}
}

// rotateAuth mints the post-transfer code, dropping a stored one.
func (sh *shard) rotateAuth(r *record) {
	sh.dropAuth(r)
	r.setAuth(authTransferred)
}

// dropAuth forgets a stored code when r leaves the shard or rotates.
func (sh *shard) dropAuth(r *record) {
	if r.auth() == authStored {
		delete(sh.authStored, r.name())
	}
}
