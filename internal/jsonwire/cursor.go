// Package jsonwire holds the hand-rolled JSON primitives of the two wire
// paths hot enough to leave encoding/json: EPP frames (internal/epp) and RDAP
// lookups (internal/rdap). Append* render values byte-identically to
// encoding/json's default encoder; Cursor is the pull reader the specialised
// decoders walk a message body with. Both halves are pinned to encoding/json
// by the differential and fuzz tests of the packages that use them.
package jsonwire

import (
	"fmt"
	"math"
	"strings"
	"time"
	"unicode/utf16"
	"unicode/utf8"
)

// maxDepth is encoding/json's nesting limit; deeper input is an error there
// and here.
const maxDepth = 10000

// Cursor is a minimal JSON pull reader over one message body. It accepts
// exactly the syntax encoding/json accepts, except that the integer readers
// refuse fractions and exponents.
type Cursor struct {
	// Scratch backs unescaped string values. A caller decoding many messages
	// may carry it from one Cursor to the next to reuse the buffer.
	Scratch []byte

	b     []byte
	i     int
	depth int
}

// Reset points the cursor at the start of body, keeping Scratch.
func (c *Cursor) Reset(body []byte) {
	c.b, c.i, c.depth = body, 0, 0
}

func (c *Cursor) errAt(what string) error {
	return fmt.Errorf("jsonwire: %s at offset %d", what, c.i)
}

func (c *Cursor) skipWS() {
	for c.i < len(c.b) {
		switch c.b[c.i] {
		case ' ', '\t', '\n', '\r':
			c.i++
		default:
			return
		}
	}
}

func (c *Cursor) expect(ch byte) error {
	c.skipWS()
	if c.i >= len(c.b) || c.b[c.i] != ch {
		return c.errAt(fmt.Sprintf("expected %q", ch))
	}
	c.i++
	return nil
}

// peek returns the next non-whitespace byte without consuming it.
func (c *Cursor) peek() (byte, error) {
	c.skipWS()
	if c.i >= len(c.b) {
		return 0, c.errAt("unexpected end of input")
	}
	return c.b[c.i], nil
}

// Literal consumes text if the body goes on with exactly it — no whitespace
// skipped — and nothing otherwise.
func (c *Cursor) Literal(text string) bool {
	if len(c.b)-c.i < len(text) || string(c.b[c.i:c.i+len(text)]) != text {
		return false
	}
	c.i += len(text)
	return true
}

// TryNull consumes a null literal if present.
func (c *Cursor) TryNull() bool {
	c.skipWS()
	return c.Literal("null")
}

// ReadString returns the decoded bytes of a JSON string. The result aliases
// the message body when the string has no escapes and Scratch otherwise —
// either way it is only valid until the next ReadString or the next message,
// so callers must intern or copy anything they keep. Bytes that are not valid
// UTF-8 pass through as they are.
func (c *Cursor) ReadString() ([]byte, error) {
	raw, escaped, err := c.skipString()
	if err != nil || !escaped {
		return raw, err
	}
	c.Scratch = unescape(c.Scratch[:0], raw)
	return c.Scratch, nil
}

// RawString consumes a JSON string and returns its token as it stands in the
// body, quotes and escapes included — what an UnmarshalJSON method expects.
// No escape is resolved and Scratch is not touched.
func (c *Cursor) RawString() ([]byte, error) {
	raw, _, err := c.skipString()
	if err != nil {
		return nil, err
	}
	return c.b[c.i-len(raw)-2 : c.i], nil
}

// skipString consumes a JSON string, checking its syntax, and returns what
// stands between its quotes and whether that has escapes in it.
func (c *Cursor) skipString() (raw []byte, escaped bool, err error) {
	if err := c.expect('"'); err != nil {
		return nil, false, err
	}
	for start := c.i; c.i < len(c.b); c.i++ {
		switch b := c.b[c.i]; {
		case b == '"':
			c.i++
			return c.b[start : c.i-1], escaped, nil
		case b < 0x20:
			return nil, false, c.errAt("control character in string")
		case b == '\\':
			escaped = true
			c.i++ // onto what is escaped, and with \u to the last digit
			if c.i < len(c.b) && c.b[c.i] == 'u' {
				if _, ok := hexRune(c.b[c.i+1 : min(c.i+5, len(c.b))]); !ok {
					return nil, false, c.errAt("invalid \\u escape")
				}
				c.i += 4
			} else if c.i >= len(c.b) || strings.IndexByte(`"\\/bfnrt`, c.b[c.i]) < 0 {
				return nil, false, c.errAt("invalid escape")
			}
		}
	}
	return nil, false, c.errAt("unterminated string")
}

// unescape appends to out the string that raw, the checked content of a JSON
// string, stands for.
func unescape(out, raw []byte) []byte {
	for i := 0; i < len(raw); i++ {
		if raw[i] != '\\' {
			out = append(out, raw[i])
			continue
		}
		i++
		switch e := raw[i]; e {
		case 'u':
			r, _ := hexRune(raw[i+1 : i+5])
			i += 4
			if utf16.IsSurrogate(r) {
				// The low half of the pair, if it follows; a lone
				// surrogate is U+FFFD and what follows stands for itself.
				lo, ok := rune(0), i+6 < len(raw) && raw[i+1] == '\\' && raw[i+2] == 'u'
				if ok {
					lo, _ = hexRune(raw[i+3 : i+7])
				}
				if r = utf16.DecodeRune(r, lo); ok && r != replacementChar {
					i += 6
				}
			}
			out = utf8.AppendRune(out, r)
		case 'b':
			out = append(out, '\b')
		case 'f':
			out = append(out, '\f')
		case 'n':
			out = append(out, '\n')
		case 'r':
			out = append(out, '\r')
		case 't':
			out = append(out, '\t')
		default: // a quote, a backslash or a slash
			out = append(out, e)
		}
	}
	return out
}

const replacementChar = '\uFFFD'

// hexRune decodes the four digits of a \uXXXX escape.
func hexRune(digits []byte) (r rune, ok bool) {
	for _, h := range digits {
		switch {
		case h >= '0' && h <= '9':
			r = r<<4 | rune(h-'0')
		case h >= 'a' && h <= 'f':
			r = r<<4 | rune(h-'a'+10)
		case h >= 'A' && h <= 'F':
			r = r<<4 | rune(h-'A'+10)
		default:
			return 0, false
		}
	}
	return r, len(digits) == 4
}

// ReadInt parses a JSON integer (no exponent or fraction — the integer
// fields of the wire types never carry them).
func (c *Cursor) ReadInt() (int64, error) {
	c.skipWS()
	neg := false
	if c.i < len(c.b) && c.b[c.i] == '-' {
		neg = true
		c.i++
	}
	u, err := c.readDigits()
	if err != nil {
		return 0, err
	}
	if neg {
		if u > 1<<63 {
			return 0, c.errAt("integer overflow")
		}
		return -int64(u), nil
	}
	if u > math.MaxInt64 {
		return 0, c.errAt("integer overflow")
	}
	return int64(u), nil
}

// ReadUint parses a non-negative JSON integer.
func (c *Cursor) ReadUint() (uint64, error) {
	c.skipWS()
	return c.readDigits()
}

func (c *Cursor) readDigits() (uint64, error) {
	start := c.i
	var n uint64
	for c.i < len(c.b) && c.b[c.i] >= '0' && c.b[c.i] <= '9' {
		d := uint64(c.b[c.i] - '0')
		if n > (math.MaxUint64-d)/10 {
			return 0, c.errAt("integer overflow")
		}
		n = n*10 + d
		c.i++
	}
	if c.i == start {
		return 0, c.errAt("expected integer")
	}
	return n, nil
}

// ReadBool parses a true or false literal.
func (c *Cursor) ReadBool() (bool, error) {
	c.skipWS()
	switch {
	case c.Literal("true"):
		return true, nil
	case c.Literal("false"):
		return false, nil
	}
	return false, c.errAt("expected boolean")
}

// ReadTime parses a quoted RFC 3339 timestamp.
func (c *Cursor) ReadTime() (time.Time, error) {
	s, err := c.ReadString()
	if err != nil {
		return time.Time{}, err
	}
	t, err := time.Parse(time.RFC3339Nano, string(s))
	if err != nil {
		return time.Time{}, fmt.Errorf("jsonwire: %w", err)
	}
	return t, nil
}

// SkipValue consumes any JSON value (for unknown fields), checking its
// syntax as strictly as encoding/json does.
func (c *Cursor) SkipValue() error {
	b, err := c.peek()
	if err != nil {
		return err
	}
	switch b {
	case '"':
		_, _, err := c.skipString()
		return err
	case '{':
		return c.Object(func([]byte) error { return c.SkipValue() })
	case '[':
		return c.Array(c.SkipValue)
	case 't', 'f':
		_, err := c.ReadBool()
		return err
	case 'n':
		if !c.TryNull() {
			return c.errAt("invalid literal")
		}
		return nil
	default:
		return c.skipNumber()
	}
}

// skipNumber consumes a number in the full JSON grammar:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (c *Cursor) skipNumber() error {
	digits := func() bool {
		start := c.i
		for c.i < len(c.b) && c.b[c.i] >= '0' && c.b[c.i] <= '9' {
			c.i++
		}
		return c.i > start
	}
	if c.i < len(c.b) && c.b[c.i] == '-' {
		c.i++
	}
	if c.i < len(c.b) && c.b[c.i] == '0' {
		c.i++
	} else if !digits() {
		return c.errAt("expected value")
	}
	if c.i < len(c.b) && c.b[c.i] == '.' {
		c.i++
		if !digits() {
			return c.errAt("expected fraction digits")
		}
	}
	if c.i < len(c.b) && (c.b[c.i] == 'e' || c.b[c.i] == 'E') {
		c.i++
		if c.i < len(c.b) && (c.b[c.i] == '+' || c.b[c.i] == '-') {
			c.i++
		}
		if !digits() {
			return c.errAt("expected exponent digits")
		}
	}
	return nil
}

// enter opens a composite that starts with open, enforcing the depth limit;
// empty reports that its close byte followed immediately.
func (c *Cursor) enter(open, close byte) (empty bool, err error) {
	if err := c.expect(open); err != nil {
		return false, err
	}
	if c.depth++; c.depth > maxDepth {
		return false, c.errAt("exceeded max depth")
	}
	b, err := c.peek()
	if err != nil {
		return false, err
	}
	if b == close {
		c.i++
		c.depth--
		return true, nil
	}
	return false, nil
}

// more consumes the separator after a composite's member: true after a
// comma, false after the close byte.
func (c *Cursor) more(close byte) (bool, error) {
	b, err := c.peek()
	if err != nil {
		return false, err
	}
	switch b {
	case ',':
		c.i++
		return true, nil
	case close:
		c.i++
		c.depth--
		return false, nil
	}
	return false, c.errAt(fmt.Sprintf("expected ',' or %q", close))
}

// Object iterates the fields of a JSON object, calling field with each key;
// field must consume the value. The key bytes are only valid inside the
// callback, until its first ReadString.
func (c *Cursor) Object(field func(key []byte) error) error {
	empty, err := c.enter('{', '}')
	if err != nil || empty {
		return err
	}
	for {
		key, err := c.ReadString()
		if err != nil {
			return err
		}
		if err := c.expect(':'); err != nil {
			return err
		}
		if err := field(key); err != nil {
			return err
		}
		if ok, err := c.more('}'); err != nil || !ok {
			return err
		}
	}
}

// Array iterates the elements of a JSON array; elem must consume one value
// per call.
func (c *Cursor) Array(elem func() error) error {
	empty, err := c.enter('[', ']')
	if err != nil || empty {
		return err
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		if ok, err := c.more(']'); err != nil || !ok {
			return err
		}
	}
}

// End verifies nothing but whitespace remains.
func (c *Cursor) End() error {
	c.skipWS()
	if c.i != len(c.b) {
		return c.errAt("trailing data after value")
	}
	return nil
}
