package jsonwire

import (
	"time"
	"unicode/utf8"
)

// AppendTime appends the time.Time.MarshalJSON rendering of t: a quoted
// strict RFC 3339 timestamp with nanoseconds. ok is false exactly when
// MarshalJSON would error — a year outside [0, 9999] or a zone hour outside
// [0, 23] — in which case dst is returned unchanged. (Sub-minute offset
// components are silently truncated by the "Z07:00" layout, matching
// MarshalJSON.)
func AppendTime(dst []byte, t time.Time) (_ []byte, ok bool) {
	if y := t.Year(); y < 0 || y > 9999 {
		return dst, false
	}
	if _, off := t.Zone(); off <= -24*3600 || off >= 24*3600 {
		return dst, false
	}
	dst = append(dst, '"')
	dst = t.AppendFormat(dst, time.RFC3339Nano)
	return append(dst, '"'), true
}

const hexDigits = "0123456789abcdef"

// AppendString appends s as a JSON string literal, byte-identical to
// encoding/json's default (HTML-escaping) encoder.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	dst = AppendEscaped(dst, s)
	return append(dst, '"')
}

// AppendEscaped appends the contents of the JSON string literal for s,
// without the quotes, so a literal can be assembled from several parts:
// control characters, the quote and backslash, '<', '>' and '&' are escaped,
// invalid UTF-8 becomes the \ufffd escape, and U+2028/U+2029 are escaped for
// JavaScript embedding.
func AppendEscaped(dst []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	return append(dst, s[start:]...)
}
