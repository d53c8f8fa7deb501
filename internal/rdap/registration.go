package rdap

import (
	"bytes"
	"fmt"
	"strconv"
	"time"

	"dropzero/internal/jsonwire"
	"dropzero/internal/model"
)

// Registration extracts the registration the object describes: the registry
// object ID from the handle, the IANA ID of the first entity in the
// registrar role, and the first registration, last-changed and expiration
// events. An object missing any of them is ErrMalformed.
func (d *DomainResponse) Registration() (model.PriorRegistration, error) {
	var reg model.PriorRegistration
	var err error
	if reg.ID, err = ParseHandle(d.Handle); err != nil {
		return model.PriorRegistration{}, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	if reg.RegistrarID, err = d.registrarID(); err != nil {
		return model.PriorRegistration{}, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	for _, ev := range eventFields(&reg) {
		var ok bool
		if *ev.date, ok = d.EventDate(ev.action); !ok {
			return model.PriorRegistration{}, fmt.Errorf("%w: %s has no %s event", ErrMalformed, d.LDHName, ev.action)
		}
	}
	return reg, nil
}

// eventField pairs an event action with the field its date fills.
type eventField struct {
	action string
	date   *time.Time
}

// eventFields lists the three events a registration is read from, in the
// order the server renders them.
func eventFields(reg *model.PriorRegistration) [3]eventField {
	return [3]eventField{{EventRegistration, &reg.Created}, {EventLastChanged, &reg.Updated}, {EventExpiration, &reg.Expiry}}
}

func (d *DomainResponse) registrarID() (int, error) {
	for _, e := range d.Entities {
		for _, role := range e.Roles {
			if role == "registrar" {
				return strconv.Atoi(e.Handle)
			}
		}
	}
	return 0, fmt.Errorf("%s has no registrar entity", d.LDHName)
}

// decodeRegistration is decodeDomainResponse followed by Registration —
// the same value, or an error of the same kind — without the object in
// between when the body is what this package's server renders; full reports
// that it was not. FuzzRegistrationMatchesDomain pins the equivalence.
func decodeRegistration(body []byte) (reg model.PriorRegistration, full bool, err error) {
	if reg, ok := walkRegistration(body); ok {
		return reg, false, nil
	}
	var dr DomainResponse
	if err := decodeDomainResponse(body, &dr); err != nil {
		return model.PriorRegistration{}, true, err
	}
	reg, err = dr.Registration()
	return reg, true, err
}

// domainLayout is appendDomain's rendering cut after each key whose value is
// a string, and vcardLayout the contact data an accredited registrar's entity
// goes on with: the text walkRegistration matches a body against.
var (
	domainLayout = [...]string{
		`{"objectClassName":"domain","handle":`, // [0], the object ID
		`,"ldhName":`,
		`,"status":[`,
		`],"events":[{"eventAction":"` + EventRegistration + `","eventDate":`, // [3] to [5], eventFields
		`},{"eventAction":"` + EventLastChanged + `","eventDate":`,
		`},{"eventAction":"` + EventExpiration + `","eventDate":`,
		`}],"entities":[{"objectClassName":"entity","handle":`, // [6], the registrar ID
		`,"roles":["registrar"],"publicIds":[{"type":`,
		`,"identifier":`,
	}
	vcardLayout = [...]string{`}],"vcard":{"adr":`, `,"email":`, `,"fn":`, `,"org":`, `,"tel":`}
)

// matchStrings consumes each piece and the string value after it, and
// returns false at the first difference. The values, as they stand in the
// body with their quotes, go to val if there is one.
func matchStrings(c *jsonwire.Cursor, pieces []string, val [][]byte) bool {
	for i, piece := range pieces {
		if !c.Literal(piece) {
			return false
		}
		tok, err := c.RawString()
		if err != nil {
			return false
		}
		if val != nil {
			val[i] = tok
		}
	}
	return true
}

// walkRegistration reads a registration off a body laid out as appendDomain
// lays it out — one pass, no allocation (but for a time zone other than
// UTC). Any other body, however valid, is ok=false and left to the full
// decoder: other key order or spelling, repeated keys, null, an escape in the
// handle or the registrar ID, further events or entities.
func walkRegistration(body []byte) (reg model.PriorRegistration, ok bool) {
	var c jsonwire.Cursor
	c.Reset(body)
	var val [len(domainLayout)][]byte
	if !matchStrings(&c, domainLayout[:], val[:]) {
		return reg, false
	}
	if !c.Literal(`}]}]}`) && !(matchStrings(&c, vcardLayout[:], nil) && c.Literal(`}}]}`)) {
		return reg, false
	}
	handle, registrar := val[0][1:len(val[0])-1], val[6][1:len(val[6])-1]
	if c.End() != nil || bytes.IndexByte(handle, '\\') >= 0 || bytes.IndexByte(registrar, '\\') >= 0 {
		return reg, false
	}
	for i, ev := range eventFields(&reg) {
		if ev.date.UnmarshalJSON(val[3+i]) != nil {
			return reg, false
		}
	}
	var idErr, registrarErr error
	digits, _, _ := bytes.Cut(handle, []byte("_"))
	reg.ID, idErr = strconv.ParseUint(string(digits), 10, 64)
	reg.RegistrarID, registrarErr = strconv.Atoi(string(registrar))
	return reg, idErr == nil && registrarErr == nil
}
