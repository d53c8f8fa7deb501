package epp

import (
	"strconv"

	"dropzero/internal/jsonwire"
)

// Append-style frame encoders for the two hot wire types. During the Drop the
// EPP channel carries thousands of check/create frames per second, and the
// generic encoding/json path pays reflection plus a fresh body allocation per
// frame; these encoders append straight into a caller-owned buffer instead.
//
// The contract is strict byte identity with encoding/json: for every Request
// and every Response whose times MarshalJSON accepts, appendRequest and
// appendResponse produce exactly the bytes json.Marshal would (same field
// order, same omitempty behaviour, same string escaping including the HTML
// escapes < > &, same RFC 3339 time rendering). The invariant
// is pinned by TestAppendEncodersMatchJSON and FuzzFrameRoundTrip; any drift
// is a bug in this file, never an accepted output.

// appendRequest appends the json.Marshal rendering of r. Requests carry no
// time fields, so the encoding is infallible.
func appendRequest(dst []byte, r *Request) []byte {
	dst = append(dst, `{"cmd":`...)
	dst = jsonwire.AppendString(dst, r.Cmd)
	if r.Registrar != 0 {
		dst = append(dst, `,"registrar":`...)
		dst = strconv.AppendInt(dst, int64(r.Registrar), 10)
	}
	if r.Token != "" {
		dst = append(dst, `,"token":`...)
		dst = jsonwire.AppendString(dst, r.Token)
	}
	if r.Name != "" {
		dst = append(dst, `,"name":`...)
		dst = jsonwire.AppendString(dst, r.Name)
	}
	if r.Years != 0 {
		dst = append(dst, `,"years":`...)
		dst = strconv.AppendInt(dst, int64(r.Years), 10)
	}
	if r.PollOp != "" {
		dst = append(dst, `,"pollOp":`...)
		dst = jsonwire.AppendString(dst, r.PollOp)
	}
	if r.MsgID != 0 {
		dst = append(dst, `,"msgID":`...)
		dst = strconv.AppendUint(dst, r.MsgID, 10)
	}
	if r.AuthInfo != "" {
		dst = append(dst, `,"authInfo":`...)
		dst = jsonwire.AppendString(dst, r.AuthInfo)
	}
	return append(dst, '}')
}

// appendResponse appends the json.Marshal rendering of r. ok is false when a
// time field is outside what time.Time.MarshalJSON accepts (year beyond
// [0, 9999] or a zone offset with a seconds component); the caller falls back
// to encoding/json, which reports the same condition as an error.
func appendResponse(dst []byte, r *Response) (_ []byte, ok bool) {
	dst = append(dst, `{"code":`...)
	dst = strconv.AppendInt(dst, int64(r.Code), 10)
	dst = append(dst, `,"msg":`...)
	dst = jsonwire.AppendString(dst, r.Msg)
	if r.Available != nil {
		dst = append(dst, `,"available":`...)
		dst = strconv.AppendBool(dst, *r.Available)
	}
	if r.Domain != nil {
		dst = append(dst, `,"domain":`...)
		if dst, ok = appendDomainInfo(dst, r.Domain); !ok {
			return dst, false
		}
	}
	if r.Message != nil {
		dst = append(dst, `,"message":{"id":`...)
		dst = strconv.AppendUint(dst, r.Message.ID, 10)
		dst = append(dst, `,"time":`...)
		if dst, ok = jsonwire.AppendTime(dst, r.Message.Time); !ok {
			return dst, false
		}
		dst = append(dst, `,"text":`...)
		dst = jsonwire.AppendString(dst, r.Message.Text)
		dst = append(dst, '}')
	}
	if r.MsgCount != 0 {
		dst = append(dst, `,"msgCount":`...)
		dst = strconv.AppendInt(dst, int64(r.MsgCount), 10)
	}
	dst = append(dst, `,"serverTime":`...)
	if dst, ok = jsonwire.AppendTime(dst, r.ServerTime); !ok {
		return dst, false
	}
	return append(dst, '}'), true
}

func appendDomainInfo(dst []byte, d *DomainInfo) (_ []byte, ok bool) {
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendUint(dst, d.ID, 10)
	dst = append(dst, `,"name":`...)
	dst = jsonwire.AppendString(dst, d.Name)
	dst = append(dst, `,"registrar":`...)
	dst = strconv.AppendInt(dst, int64(d.Registrar), 10)
	dst = append(dst, `,"created":`...)
	if dst, ok = jsonwire.AppendTime(dst, d.Created); !ok {
		return dst, false
	}
	dst = append(dst, `,"updated":`...)
	if dst, ok = jsonwire.AppendTime(dst, d.Updated); !ok {
		return dst, false
	}
	dst = append(dst, `,"expiry":`...)
	if dst, ok = jsonwire.AppendTime(dst, d.Expiry); !ok {
		return dst, false
	}
	dst = append(dst, `,"status":`...)
	dst = jsonwire.AppendString(dst, d.Status)
	if d.AuthInfo != "" {
		dst = append(dst, `,"authInfo":`...)
		dst = jsonwire.AppendString(dst, d.AuthInfo)
	}
	return append(dst, '}'), true
}
