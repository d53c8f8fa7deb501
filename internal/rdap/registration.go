package rdap

import (
	"fmt"
	"strconv"
	"time"

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
	for _, ev := range [...]struct {
		action string
		date   *time.Time
	}{{EventRegistration, &reg.Created}, {EventLastChanged, &reg.Updated}, {EventExpiration, &reg.Expiry}} {
		var ok bool
		if *ev.date, ok = d.EventDate(ev.action); !ok {
			return model.PriorRegistration{}, fmt.Errorf("%w: %s has no %s event", ErrMalformed, d.LDHName, ev.action)
		}
	}
	return reg, nil
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
