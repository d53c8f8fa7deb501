package epp

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"testing"
	"time"
	"unicode/utf8"
)

// FuzzReadFrame hardens the frame decoder against hostile bytes: no panics,
// no unbounded allocations beyond the frame cap.
func FuzzReadFrame(f *testing.F) {
	var buf bytes.Buffer
	_ = WriteFrame(&buf, &Request{Cmd: CmdCheck, Name: "seed.com"})
	f.Add(buf.Bytes())
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 'x'})
	// Truncated header and truncated body.
	f.Add([]byte{0, 0})
	f.Add([]byte{0, 0, 0, 9, '{', '}'})
	// Header exactly at and one past the frame cap.
	capped := make([]byte, 4)
	binary.BigEndian.PutUint32(capped, MaxFrame)
	f.Add(capped)
	over := make([]byte, 4)
	binary.BigEndian.PutUint32(over, MaxFrame+1)
	f.Add(over)
	f.Fuzz(func(t *testing.T, data []byte) {
		var req Request
		_ = ReadFrame(bytes.NewReader(data), &req)
		var resp Response
		_ = ReadFrame(bytes.NewReader(data), &resp)
		// The connection-loop reader must agree with the one-shot reader on
		// whether a frame is acceptable.
		fr := newFrameReader(bytes.NewReader(data))
		var req2 Request
		err1 := ReadFrame(bytes.NewReader(data), &req)
		err2 := readFrame(fr, &req2)
		fr.release()
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("ReadFrame err=%v, frameReader err=%v", err1, err2)
		}
		if err1 == nil && req != req2 {
			t.Fatalf("ReadFrame %+v, frameReader %+v", req, req2)
		}
	})
}

// FuzzFrameRoundTrip drives arbitrary Request values through the append
// encoder and the specialised decoder, pinning three properties: the encoder
// is byte-identical to encoding/json, encode→decode is the identity, and the
// decoder agrees with encoding/json on the same body.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add("create", 1007, "tok", "contested00.com", 3, "req", uint64(18), "AX-3k")
	f.Add("", 0, "", "", 0, "", uint64(0), "")
	f.Add("poll", -1, "t\x00k", "héllo <&>.com", -10, "ack", uint64(1)<<63, "\xff\xfe")
	f.Add("login", 42, "line sep", "�.net", 9, "zz", ^uint64(0), "\\\"")
	f.Fuzz(func(t *testing.T, cmd string, registrar int, token, name string,
		years int, pollOp string, msgID uint64, authInfo string) {
		req := Request{Cmd: cmd, Registrar: registrar, Token: token, Name: name,
			Years: years, PollOp: pollOp, MsgID: msgID, AuthInfo: authInfo}

		want, err := json.Marshal(&req)
		if err != nil {
			t.Fatalf("json.Marshal: %v", err)
		}
		got := appendRequest(nil, &req)
		if !bytes.Equal(got, want) {
			t.Fatalf("encoder drift:\n got %s\nwant %s", got, want)
		}

		// encode→decode round trip. Invalid UTF-8 is lossy by design (each
		// bad byte becomes �, exactly as encoding/json renders it), so the
		// round-trip target is the value as json itself decodes it; for
		// valid-UTF-8 input that equals req exactly.
		var back, viaJSON Request
		if err := decodeFrame(got, &back, nil); err != nil {
			t.Fatalf("decodeFrame rejected encoder output %s: %v", got, err)
		}
		if err := json.Unmarshal(got, &viaJSON); err != nil {
			t.Fatalf("json.Unmarshal: %v", err)
		}
		if back != viaJSON {
			t.Fatalf("decoder disagrees with encoding/json:\n got %+v\nwant %+v", back, viaJSON)
		}
		if utf8.ValidString(cmd) && utf8.ValidString(token) && utf8.ValidString(name) &&
			utf8.ValidString(pollOp) && utf8.ValidString(authInfo) && back != req {
			t.Fatalf("round trip drift:\n got %+v\nwant %+v", back, req)
		}
	})
}

// FuzzResponseRoundTrip does the same for Response frames, covering the
// pointer-valued fields (availability, domain, poll message) and timestamps.
func FuzzResponseRoundTrip(f *testing.F) {
	f.Add(1000, "ok", true, true, "won.com", int64(1520535600), "active", uint64(3), "deleted", 7)
	f.Add(2302, "object exists", false, false, "", int64(0), "", uint64(0), "", 0)
	f.Add(2400, "msg  <&>", true, false, "\xffbad.com", int64(-62135596800), "pendingDelete", ^uint64(0), "x\x00y", -4)
	f.Fuzz(func(t *testing.T, code int, msg string, hasAvail, avail bool,
		domName string, unix int64, status string, msgID uint64, msgText string, msgCount int) {
		resp := Response{Code: code, Msg: msg, MsgCount: msgCount,
			ServerTime: time.Unix(unix%4e10, 0).UTC()}
		if hasAvail {
			resp.Available = &avail
		}
		if domName != "" {
			ts := time.Unix(unix%4e10, int64(code)).UTC()
			resp.Domain = &DomainInfo{ID: msgID, Name: domName, Registrar: code,
				Created: ts, Updated: ts, Expiry: ts, Status: status, AuthInfo: msgText}
		}
		if msgID != 0 {
			resp.Message = &Message{ID: msgID, Time: time.Unix(unix%4e10, 0).UTC(), Text: msgText}
		}

		want, jerr := json.Marshal(&resp)
		got, ok := appendResponse(nil, &resp)
		if (jerr == nil) != ok {
			t.Fatalf("encoder ok=%v, json.Marshal err=%v", ok, jerr)
		}
		if jerr != nil {
			return // out-of-range time; both sides reject, nothing to compare
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("encoder drift:\n got %s\nwant %s", got, want)
		}
		var back, viaJSON Response
		if err := decodeFrame(got, &back, nil); err != nil {
			t.Fatalf("decodeFrame rejected encoder output %s: %v", got, err)
		}
		if err := json.Unmarshal(got, &viaJSON); err != nil {
			t.Fatalf("json.Unmarshal: %v", err)
		}
		assertResponseEqual(t, &back, &viaJSON)
	})
}

func assertResponseEqual(t *testing.T, got, want *Response) {
	t.Helper()
	if got.Code != want.Code || got.Msg != want.Msg || got.MsgCount != want.MsgCount ||
		!got.ServerTime.Equal(want.ServerTime) {
		t.Fatalf("scalar drift:\n got %+v\nwant %+v", got, want)
	}
	if (got.Available == nil) != (want.Available == nil) ||
		(got.Available != nil && *got.Available != *want.Available) {
		t.Fatalf("available drift: got %v want %v", got.Available, want.Available)
	}
	if (got.Domain == nil) != (want.Domain == nil) {
		t.Fatalf("domain drift: got %+v want %+v", got.Domain, want.Domain)
	}
	if got.Domain != nil && *got.Domain != *want.Domain {
		t.Fatalf("domain drift:\n got %+v\nwant %+v", *got.Domain, *want.Domain)
	}
	if (got.Message == nil) != (want.Message == nil) {
		t.Fatalf("message drift: got %+v want %+v", got.Message, want.Message)
	}
	if got.Message != nil && *got.Message != *want.Message {
		t.Fatalf("message drift:\n got %+v\nwant %+v", *got.Message, *want.Message)
	}
}
