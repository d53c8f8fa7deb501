package epp

import "dropzero/internal/jsonwire"

// Specialised frame decoders for the two hot wire types. encoding/json's
// Unmarshal pays a scanner state machine plus reflection per frame — under a
// create storm that is two thirds of the remaining per-request allocation
// budget. These decoders walk the frame body directly, intern the strings
// the protocol fixes (command names, poll ops, canonical result messages,
// lifecycle status names) and copy only what genuinely escapes (domain
// names, tokens, free-text messages).
//
// They accept the JSON this package's encoders emit — which is byte-identical
// to json.Marshal — plus insignificant whitespace, reordered and unknown
// fields, and nulls, and they reject malformed input with an error, never a
// panic (FuzzReadFrame, FuzzFrameRoundTrip). They are deliberately stricter
// than encoding/json about exotic number forms (exponents, floats) that no
// EPP peer emits for these integer fields.

// internCommand returns the canonical constant for a known command name so
// decoded requests do not allocate for the fixed protocol vocabulary.
func internCommand(b []byte) string {
	switch string(b) {
	case CmdLogin:
		return CmdLogin
	case CmdLogout:
		return CmdLogout
	case CmdCheck:
		return CmdCheck
	case CmdInfo:
		return CmdInfo
	case CmdCreate:
		return CmdCreate
	case CmdRenew:
		return CmdRenew
	case CmdUpdate:
		return CmdUpdate
	case CmdDelete:
		return CmdDelete
	case CmdPoll:
		return CmdPoll
	case CmdTransfer:
		return CmdTransfer
	}
	return string(b)
}

func internPollOp(b []byte) string {
	switch string(b) {
	case PollOpRequest:
		return PollOpRequest
	case PollOpAck:
		return PollOpAck
	}
	return string(b)
}

// internMsg returns the interned canonical result message when the wire text
// matches one, so the response frames a losing drop-catch create sees by the
// thousand decode without a message allocation.
func internMsg(b []byte) string {
	switch string(b) {
	case msgOK:
		return msgOK
	case msgLoggedOut:
		return msgLoggedOut
	case msgNoMessages:
		return msgNoMessages
	case msgAckToDequeue:
		return msgAckToDequeue
	case msgNotLoggedIn:
		return msgNotLoggedIn
	case msgAuthError:
		return msgAuthError
	case msgRateLimited:
		return msgRateLimited
	case msgObjectExists:
		return msgObjectExists
	case msgObjectNotFound:
		return msgObjectNotFound
	case msgAuthorization:
		return msgAuthorization
	case msgBadAuthInfo:
		return msgBadAuthInfo
	case msgStatusProhibits:
		return msgStatusProhibits
	}
	return string(b)
}

// internStatus interns the lifecycle status vocabulary of domain infos.
func internStatus(b []byte) string {
	switch string(b) {
	case "active":
		return "active"
	case "autoRenew":
		return "autoRenew"
	case "redemption":
		return "redemption"
	case "pendingDelete":
		return "pendingDelete"
	case "dropped":
		return "dropped"
	}
	return string(b)
}

// decodeRequest parses a request frame body into req (fully overwritten).
func decodeRequest(c *jsonwire.Cursor, req *Request) error {
	*req = Request{}
	err := c.Object(func(key []byte) error {
		switch string(key) {
		case "cmd":
			s, err := c.ReadString()
			if err != nil {
				return err
			}
			req.Cmd = internCommand(s)
		case "registrar":
			n, err := c.ReadInt()
			if err != nil {
				return err
			}
			req.Registrar = int(n)
		case "token":
			s, err := c.ReadString()
			if err != nil {
				return err
			}
			req.Token = string(s)
		case "name":
			s, err := c.ReadString()
			if err != nil {
				return err
			}
			req.Name = string(s)
		case "years":
			n, err := c.ReadInt()
			if err != nil {
				return err
			}
			req.Years = int(n)
		case "pollOp":
			s, err := c.ReadString()
			if err != nil {
				return err
			}
			req.PollOp = internPollOp(s)
		case "msgID":
			n, err := c.ReadUint()
			if err != nil {
				return err
			}
			req.MsgID = n
		case "authInfo":
			s, err := c.ReadString()
			if err != nil {
				return err
			}
			req.AuthInfo = string(s)
		default:
			return c.SkipValue()
		}
		return nil
	})
	if err != nil {
		return err
	}
	return c.End()
}

// decodeResponse parses a response frame body into resp (fully overwritten).
func decodeResponse(c *jsonwire.Cursor, resp *Response) error {
	*resp = Response{}
	err := c.Object(func(key []byte) error {
		switch string(key) {
		case "code":
			n, err := c.ReadInt()
			if err != nil {
				return err
			}
			resp.Code = int(n)
		case "msg":
			s, err := c.ReadString()
			if err != nil {
				return err
			}
			resp.Msg = internMsg(s)
		case "available":
			if c.TryNull() {
				return nil
			}
			v, err := c.ReadBool()
			if err != nil {
				return err
			}
			resp.Available = &v
		case "domain":
			if c.TryNull() {
				return nil
			}
			resp.Domain = new(DomainInfo)
			return decodeDomainInfo(c, resp.Domain)
		case "message":
			if c.TryNull() {
				return nil
			}
			resp.Message = new(Message)
			return decodeMessage(c, resp.Message)
		case "msgCount":
			n, err := c.ReadInt()
			if err != nil {
				return err
			}
			resp.MsgCount = int(n)
		case "serverTime":
			t, err := c.ReadTime()
			if err != nil {
				return err
			}
			resp.ServerTime = t
		default:
			return c.SkipValue()
		}
		return nil
	})
	if err != nil {
		return err
	}
	return c.End()
}

func decodeDomainInfo(c *jsonwire.Cursor, d *DomainInfo) error {
	return c.Object(func(key []byte) error {
		var err error
		switch string(key) {
		case "id":
			d.ID, err = c.ReadUint()
		case "name":
			var s []byte
			if s, err = c.ReadString(); err == nil {
				d.Name = string(s)
			}
		case "registrar":
			var n int64
			if n, err = c.ReadInt(); err == nil {
				d.Registrar = int(n)
			}
		case "created":
			d.Created, err = c.ReadTime()
		case "updated":
			d.Updated, err = c.ReadTime()
		case "expiry":
			d.Expiry, err = c.ReadTime()
		case "status":
			var s []byte
			if s, err = c.ReadString(); err == nil {
				d.Status = internStatus(s)
			}
		case "authInfo":
			var s []byte
			if s, err = c.ReadString(); err == nil {
				d.AuthInfo = string(s)
			}
		default:
			err = c.SkipValue()
		}
		return err
	})
}

func decodeMessage(c *jsonwire.Cursor, m *Message) error {
	return c.Object(func(key []byte) error {
		var err error
		switch string(key) {
		case "id":
			m.ID, err = c.ReadUint()
		case "time":
			m.Time, err = c.ReadTime()
		case "text":
			var s []byte
			if s, err = c.ReadString(); err == nil {
				m.Text = string(s)
			}
		default:
			err = c.SkipValue()
		}
		return err
	})
}
