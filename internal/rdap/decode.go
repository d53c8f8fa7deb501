package rdap

import (
	"strings"
	"unicode/utf8"

	"dropzero/internal/jsonwire"
)

// Cursor decoder for the domain response, the client half of every lookup
// the study makes. The contract is value identity with encoding/json:
// whenever decodeDomainResponse returns nil, dr is reflect.DeepEqual to what
// json.Unmarshal leaves in it for the same body — field names resolved
// exactly or under case folding, unknown fields skipped, null handled per
// kind, a repeated field decoded over the earlier value, invalid UTF-8
// replaced by U+FFFD, timestamps parsed by time.Time.UnmarshalJSON. Where
// json.Unmarshal reports an error so does this decoder, though not the same
// one. FuzzDecodeDomainMatchesJSON pins all of it.

// decodeDomainResponse parses one response body into dr.
func decodeDomainResponse(body []byte, dr *DomainResponse) error {
	var c jsonwire.Cursor
	c.Reset(body)
	if !c.TryNull() {
		if err := decodeDomain(&c, dr); err != nil {
			return err
		}
	}
	return c.End()
}

// is reports whether an object key names the struct field tagged name, the
// way encoding/json matches them.
func is(key []byte, name string) bool {
	return string(key) == name || strings.EqualFold(string(key), name)
}

func decodeDomain(c *jsonwire.Cursor, dr *DomainResponse) error {
	return c.Object(func(key []byte) error {
		switch {
		case is(key, "objectClassName"):
			return decodeString(c, &dr.ObjectClassName)
		case is(key, "handle"):
			return decodeString(c, &dr.Handle)
		case is(key, "ldhName"):
			return decodeString(c, &dr.LDHName)
		case is(key, "status"):
			return decodeSlice(c, &dr.Status, 1, decodeString)
		case is(key, "events"):
			return decodeSlice(c, &dr.Events, 3, decodeEvent)
		case is(key, "entities"):
			return decodeSlice(c, &dr.Entities, 1, decodeEntity)
		}
		return c.SkipValue()
	})
}

func decodeEvent(c *jsonwire.Cursor, e *Event) error {
	if c.TryNull() {
		return nil
	}
	return c.Object(func(key []byte) error {
		switch {
		case is(key, "eventAction"):
			return decodeString(c, &e.Action)
		case is(key, "eventDate"):
			if c.TryNull() {
				return nil
			}
			// UnmarshalJSON takes the token as it stands: it does not
			// unescape, so neither may the cursor.
			raw, err := c.RawString()
			if err != nil {
				return err
			}
			return e.Date.UnmarshalJSON(raw)
		}
		return c.SkipValue()
	})
}

func decodeEntity(c *jsonwire.Cursor, e *Entity) error {
	if c.TryNull() {
		return nil
	}
	return c.Object(func(key []byte) error {
		switch {
		case is(key, "objectClassName"):
			return decodeString(c, &e.ObjectClassName)
		case is(key, "handle"):
			return decodeString(c, &e.Handle)
		case is(key, "roles"):
			return decodeSlice(c, &e.Roles, 1, decodeString)
		case is(key, "publicIds"):
			return decodeSlice(c, &e.PublicIDs, 1, decodePublicID)
		case is(key, "vcard"):
			return decodeStringMap(c, &e.VCard)
		}
		return c.SkipValue()
	})
}

func decodePublicID(c *jsonwire.Cursor, p *PublicID) error {
	if c.TryNull() {
		return nil
	}
	return c.Object(func(key []byte) error {
		switch {
		case is(key, "type"):
			return decodeString(c, &p.Type)
		case is(key, "identifier"):
			return decodeString(c, &p.Identifier)
		}
		return c.SkipValue()
	})
}

// decodeString reads a string value; null leaves *dst as it is.
func decodeString(c *jsonwire.Cursor, dst *string) error {
	if c.TryNull() {
		return nil
	}
	b, err := c.ReadString()
	if err != nil {
		return err
	}
	*dst = text(b)
	return nil
}

// text copies decoded string bytes, replacing each byte that is not valid
// UTF-8 with U+FFFD as encoding/json does.
func text(b []byte) string {
	if utf8.Valid(b) {
		return intern(b)
	}
	return string([]rune(string(b)))
}

// intern returns the shared constant for the values every response of this
// package's server repeats, and a copy of anything else.
func intern(b []byte) string {
	if s, ok := interned[string(b)]; ok {
		return s
	}
	return string(b)
}

var interned = func() map[string]string {
	m := make(map[string]string)
	for _, s := range []string{"domain", "entity", "registrar", EventRegistration, EventLastChanged, EventExpiration,
		"active", "autoRenewPeriod", "redemptionPeriod", "pendingDelete", "IANA Registrar ID", "fn", "org", "email", "adr", "tel"} {
		m[s] = s
	}
	return m
}()

// decodeSlice reads an array into *dst the way encoding/json does: null
// makes it nil, an empty array makes it empty but non-nil, and elements are
// decoded over whatever *dst already holds — after a repeated field that is
// the earlier value's elements, not zero ones. A first element is given room
// for hint of them, the count this package's server sends.
func decodeSlice[T any](c *jsonwire.Cursor, dst *[]T, hint int, elem func(*jsonwire.Cursor, *T) error) error {
	if c.TryNull() {
		*dst = nil
		return nil
	}
	s, n := *dst, 0
	err := c.Array(func() error {
		if n >= len(s) {
			if s == nil {
				s = make([]T, 1, hint)
			} else if n < cap(s) {
				s = s[:n+1]
			} else {
				var zero T
				s = append(s, zero)
			}
		}
		e := &s[n]
		n++
		return elem(c, e)
	})
	if err != nil {
		return err
	}
	if n == 0 {
		s = []T{}
	}
	*dst = s[:n]
	return nil
}

// decodeStringMap reads an object into *dst: null makes it nil, a null
// member stores the empty string, and members add to a map a repeated field
// already filled.
func decodeStringMap(c *jsonwire.Cursor, dst *map[string]string) error {
	if c.TryNull() {
		*dst = nil
		return nil
	}
	if *dst == nil {
		*dst = make(map[string]string)
	}
	m := *dst
	return c.Object(func(key []byte) error {
		k, v := text(key), ""
		if err := decodeString(c, &v); err != nil {
			return err
		}
		m[k] = v
		return nil
	})
}
