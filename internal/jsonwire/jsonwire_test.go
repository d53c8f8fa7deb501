package jsonwire

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// The packages that build codecs on these primitives pin whole messages to
// encoding/json (epp's FuzzFrameRoundTrip, rdap's FuzzDecodeDomainMatchesJSON
// and FuzzRenderDomainMatchesJSON); the tests here pin the primitives alone.

func skips(body []byte) bool {
	var c Cursor
	c.Reset(body)
	return c.SkipValue() == nil && c.End() == nil
}

var syntaxCorpus = []string{
	``, ` `, `null`, `nul`, `nullx`, `true`, `tru`, `false `, `0`, `-0`, `01`, `-`, `1.`, `.5`, `1.5e+10`, `1e`, `1E-2`, `+1`,
	`""`, `"a\"b"`, `"é😀"`, `"\ud800"`, `"\q"`, `"\u12"`, "\"\x01\"", "\"\xff\"", `"open`,
	`[]`, `[ ]`, `[1,2]`, `[1,]`, `[,1]`, `[1 2]`, `[}`, `[`, `]`,
	`{}`, `{"a":1}`, `{"a":1,}`, `{"a"}`, `{"a":}`, `{a:1}`, `{"a":1 "b":2}`, `{]`, `{"a":[{"b":[]}]}`, `{} {}`, ` [ { "k" : [ null , true ] } ] `,
	strings.Repeat("[", 10000) + strings.Repeat("]", 10000),
	strings.Repeat("[", 10001) + strings.Repeat("]", 10001),
	strings.Repeat(`{"a":`, 10000) + "1" + strings.Repeat("}", 10000),
	strings.Repeat(`{"a":`, 10001) + "1" + strings.Repeat("}", 10001),
}

func TestSkipValueMatchesJSONValid(t *testing.T) {
	for _, body := range syntaxCorpus {
		if got, want := skips([]byte(body)), json.Valid([]byte(body)); got != want {
			t.Errorf("SkipValue accepts %.60q = %v, json.Valid = %v", body, got, want)
		}
	}
}

// FuzzSkipValueMatchesJSONValid: the cursor accepts exactly the documents
// encoding/json does — the property that lets a decoder skip unknown fields
// without becoming laxer than json.Unmarshal.
func FuzzSkipValueMatchesJSONValid(f *testing.F) {
	for _, body := range syntaxCorpus {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if got, want := skips(body), json.Valid(body); got != want {
			t.Fatalf("SkipValue accepts %q = %v, json.Valid = %v", body, got, want)
		}
	})
}

// FuzzStringMatchesJSON: AppendString is json.Marshal of a string, and
// ReadString of that literal is json.Unmarshal of it.
func FuzzStringMatchesJSON(f *testing.F) {
	for _, s := range []string{"", "plain", "<b>&\"\\/\b\f\n\r\t\x00\x1f", "é😀  ", "\xff\xfe\xc3(", "\xed\xa0\x80"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		lit := AppendString(nil, s)
		if !bytes.Equal(lit, want) {
			t.Fatalf("AppendString(%q) = %s, json.Marshal = %s", s, lit, want)
		}
		var c Cursor
		c.Reset(lit)
		got, err := c.ReadString()
		if err != nil || c.End() != nil {
			t.Fatalf("ReadString(%s): %v", lit, err)
		}
		var back string
		if err := json.Unmarshal(lit, &back); err != nil {
			t.Fatal(err)
		}
		if string(got) != back {
			t.Fatalf("ReadString(%s) = %q, json.Unmarshal = %q", lit, got, back)
		}
		raw, err := (&Cursor{b: lit}).RawString()
		if err != nil || !bytes.Equal(raw, lit) {
			t.Fatalf("RawString(%s) = %s, %v", lit, raw, err)
		}
	})
}

// FuzzReadStringMatchesJSON: on any bytes, ReadString accepts the string
// literals json.Unmarshal accepts and decodes them to the same string —
// every escape, surrogate pairs and the lone halves that become U+FFFD —
// and RawString returns the literal untouched.
func FuzzReadStringMatchesJSON(f *testing.F) {
	for _, lit := range []string{
		`"a\/b\\\"\b\f\n\r\t\u00e9"`, `"\ud83d\ude00"`, `"\ud800"`, `"\ud800A"`, `"\ud800\u0041"`, `"\udc00\ud800"`, `"\ud800\ud83d\ude00"`,
		`"\ud83d\ude0"`, `"\ud83d\"`, `"\ud83d\q"`, `"\u12g4"`, `"\`, `"\u`, `"x\`, ` "pad" `, `"a"b`, "\"\xff\\u00e9\"", `5`,
	} {
		f.Add([]byte(lit))
	}
	f.Fuzz(func(t *testing.T, lit []byte) {
		var c Cursor
		c.Reset(lit)
		got, err := c.ReadString()
		if err == nil {
			err = c.End()
		}
		var want string
		if wantErr := json.Unmarshal(lit, &want); (err == nil) != (wantErr == nil) {
			t.Fatalf("ReadString(%q) error %v, json.Unmarshal error %v", lit, err, wantErr)
		} else if err != nil {
			return
		}
		// encoding/json replaces each byte of invalid UTF-8, as []rune does.
		if string([]rune(string(got))) != want {
			t.Fatalf("ReadString(%q) = %q, json.Unmarshal = %q", lit, got, want)
		}
		c.Reset(lit)
		if raw, err := c.RawString(); err != nil || !bytes.Equal(raw, bytes.TrimSpace(lit)) {
			t.Fatalf("RawString(%q) = %q, %v", lit, raw, err)
		}
	})
}

func TestAppendTimeMatchesMarshalJSON(t *testing.T) {
	for _, ts := range []time.Time{
		{}, time.Unix(1520535600, 0).UTC(), time.Unix(1520535600, 123456789).In(time.FixedZone("", 19800)),
		time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC), time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC), time.Unix(0, 0).In(time.FixedZone("", 24*3600)), time.Unix(0, 0).In(time.FixedZone("", -86399)),
	} {
		want, err := ts.MarshalJSON()
		got, ok := AppendTime([]byte("x"), ts)
		if ok != (err == nil) {
			t.Errorf("AppendTime(%v) ok=%v, MarshalJSON err=%v", ts, ok, err)
		} else if ok && string(got) != "x"+string(want) {
			t.Errorf("AppendTime(%v) = %s, MarshalJSON = %s", ts, got[1:], want)
		} else if !ok && string(got) != "x" {
			t.Errorf("AppendTime(%v) changed dst on failure: %s", ts, got)
		}
	}
}
