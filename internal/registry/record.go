package registry

import (
	"crypto/subtle"
	"errors"
	"fmt"
	"time"

	"dropzero/internal/model"
	"dropzero/internal/simtime"
)

// record is the shard-resident form of one registration: a model.Domain
// squeezed into 64 bytes with a single pointer word (the name), stored in
// its shard's table and addressable only under that shard's lock (see
// table for the validity rule). Timestamps are Unix seconds — the store
// guarantees second precision and UTC, and the zero time.Time survives the
// trip (its Unix second decodes back to a value for which IsZero holds).
// The TLD is the name's last tldLen bytes, the delete day is bit-packed,
// and the transfer code is a state from which the code is recomputed
// (authInfo). Records never leave the package: Get, Each, PendingDeletions,
// snapshot capture and observer events hand out model.Domain values built
// by domain().
type record struct {
	id        uint64
	name      string
	created   int64
	updated   int64
	expiry    int64
	registrar int32
	deleteDay int32 // simtime.Day.Pack form; 0 = no deletion scheduled
	pos       int32 // index in its due bucket (dueIndex), maintained by add/remove
	status    model.Status
	tldLen    uint8
	auth      authState
}

// errUnrepresentable marks a model.Domain the store cannot hold exactly.
// Live mutators never produce one; replay and restore input that does is
// refused instead of being rounded.
var errUnrepresentable = errors.New("registry: registration not representable")

// newRecord converts d to its stored form, or fails when any field would
// not come back from domain() exactly: sub-second timestamps, a registrar
// ID beyond int32, a delete day outside the packed range, a TLD that is not
// the name's dot-separated suffix. Timestamps in another location are
// stored as the same instant in UTC, as simtime.Trunc does on live paths.
func newRecord(d *model.Domain) (record, error) {
	n := len(d.TLD)
	if n == 0 || n > 255 || len(d.Name) <= n || d.Name[len(d.Name)-n-1] != '.' || d.Name[len(d.Name)-n:] != string(d.TLD) {
		return record{}, fmt.Errorf("%w: %q is not under TLD %q", errUnrepresentable, d.Name, d.TLD)
	}
	registrar, err := registrar32(d.RegistrarID)
	if err != nil {
		return record{}, fmt.Errorf("%w: %q", err, d.Name)
	}
	day, err := packDay(d.DeleteDay)
	if err != nil {
		return record{}, fmt.Errorf("%w: %q", err, d.Name)
	}
	if d.Created.Nanosecond() != 0 || d.Updated.Nanosecond() != 0 || d.Expiry.Nanosecond() != 0 {
		return record{}, fmt.Errorf("%w: %q: sub-second timestamp", errUnrepresentable, d.Name)
	}
	return record{
		id:        d.ID,
		name:      d.Name,
		created:   d.Created.Unix(),
		updated:   d.Updated.Unix(),
		expiry:    d.Expiry.Unix(),
		registrar: registrar,
		deleteDay: day,
		status:    d.Status,
		tldLen:    uint8(n),
	}, nil
}

// domain materialises the record as the model.Domain value it was built
// from.
func (r *record) domain() model.Domain {
	return model.Domain{
		ID:          r.id,
		Name:        r.name,
		TLD:         r.tld(),
		RegistrarID: int(r.registrar),
		Created:     unixTime(r.created),
		Updated:     unixTime(r.updated),
		Expiry:      unixTime(r.expiry),
		Status:      r.status,
		DeleteDay:   simtime.UnpackDay(r.deleteDay),
	}
}

// tld is the name's TLD suffix; it shares the name's bytes.
func (r *record) tld() model.TLD { return model.TLD(r.name[len(r.name)-int(r.tldLen):]) }

// registrar32 is a registrar ID in its stored width.
func registrar32(id int) (int32, error) {
	if int(int32(id)) != id {
		return 0, fmt.Errorf("%w: registrar ID %d", errUnrepresentable, id)
	}
	return int32(id), nil
}

// unixSeconds is t as whole Unix seconds, refusing a sub-second part.
func unixSeconds(t time.Time) (int64, error) {
	if t.Nanosecond() != 0 {
		return 0, fmt.Errorf("%w: timestamp %v has sub-second precision", errUnrepresentable, t)
	}
	return t.Unix(), nil
}

// unixTime is the inverse of unixSeconds, in UTC.
func unixTime(sec int64) time.Time { return time.Unix(sec, 0).UTC() }

// packDay is the day in its stored form (simtime.Day.Pack; 0 = the zero Day).
func packDay(d simtime.Day) (int32, error) {
	p, ok := d.Pack()
	if !ok {
		return 0, fmt.Errorf("%w: delete day %v", errUnrepresentable, d)
	}
	return p, nil
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
	switch r.auth {
	case authCreated:
		return appendAuthInfo(dst, r.id, r.name)
	case authTransferred:
		return appendAuthInfo(dst, r.id^authRotate, r.name)
	case authStored:
		return append(dst, sh.authStored[r.name]...)
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
// of the two derivations (or absent), verbatim otherwise. The caller holds
// sh's write lock.
func (sh *shard) setAuthInfo(r *record, code string) {
	var buf [authInfoLen]byte
	switch {
	case code == "":
		r.auth = authNone
	case code == string(appendAuthInfo(buf[:0], r.id, r.name)):
		r.auth = authCreated
	case code == string(appendAuthInfo(buf[:0], r.id^authRotate, r.name)):
		r.auth = authTransferred
	default:
		r.auth = authStored
		if sh.authStored == nil {
			sh.authStored = make(map[string]string)
		}
		sh.authStored[r.name] = code
	}
}

// rotateAuth mints the post-transfer code, dropping a stored one.
func (sh *shard) rotateAuth(r *record) {
	sh.dropAuth(r)
	r.auth = authTransferred
}

// dropAuth forgets a stored code when r leaves the shard or rotates.
func (sh *shard) dropAuth(r *record) {
	if r.auth == authStored {
		delete(sh.authStored, r.name)
	}
}
