// Package epp implements the provisioning protocol registrars use to talk to
// the registry: a length-framed JSON command protocol over TCP modelled on
// EPP (RFC 5730). It is the channel drop-catch services hammer with
// speculative create commands during the Drop, so the server enforces
// per-accreditation rate limits — the resource that makes holding many
// accreditations worthwhile (the paper: three services control 75 % of all
// registrar accreditations).
package epp

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"dropzero/internal/jsonwire"
)

// MaxFrame is the largest accepted frame body. Oversized frames indicate a
// broken or hostile peer and abort the connection.
const MaxFrame = 1 << 16

// Result codes, following the EPP convention: 1xxx success, 2xxx failure.
const (
	CodeOK              = 1000
	CodeNoMessages      = 1300
	CodeAckToDequeue    = 1301
	CodeLoggedOut       = 1500
	CodeUnknownCommand  = 2000
	CodeParamRange      = 2004
	CodeNotLoggedIn     = 2002
	CodeAuthError       = 2200
	CodeAuthorization   = 2201
	CodeBadAuthInfo     = 2202
	CodeObjectExists    = 2302
	CodeObjectNotFound  = 2303
	CodeStatusProhibits = 2304
	CodePolicyViolation = 2308
	CodeRateLimited     = 2502
	CodeCommandFailed   = 2400
)

// Command names accepted by the server.
const (
	CmdLogin    = "login"
	CmdLogout   = "logout"
	CmdCheck    = "check"
	CmdInfo     = "info"
	CmdCreate   = "create"
	CmdRenew    = "renew"
	CmdUpdate   = "update"
	CmdDelete   = "delete"
	CmdPoll     = "poll"
	CmdTransfer = "transfer"
)

// Poll operations (RFC 5730 §2.9.2.3).
const (
	PollOpRequest = "req"
	PollOpAck     = "ack"
)

// Request is one client command frame.
type Request struct {
	Cmd       string `json:"cmd"`
	Registrar int    `json:"registrar,omitempty"` // login only
	Token     string `json:"token,omitempty"`     // login only
	Name      string `json:"name,omitempty"`
	Years     int    `json:"years,omitempty"`
	// PollOp and MsgID drive the poll command: op "req" fetches the oldest
	// queued message, op "ack" dequeues it by ID.
	PollOp string `json:"pollOp,omitempty"`
	MsgID  uint64 `json:"msgID,omitempty"`
	// AuthInfo is the transfer authorisation code the registrant obtained
	// from the losing registrar.
	AuthInfo string `json:"authInfo,omitempty"`
}

// DomainInfo is the domain representation carried in responses.
type DomainInfo struct {
	ID        uint64    `json:"id"`
	Name      string    `json:"name"`
	Registrar int       `json:"registrar"`
	Created   time.Time `json:"created"`
	Updated   time.Time `json:"updated"`
	Expiry    time.Time `json:"expiry"`
	Status    string    `json:"status"`
	// AuthInfo is included in info responses only when the requester is the
	// sponsoring registrar (RFC 5731 §3.1.2 semantics).
	AuthInfo string `json:"authInfo,omitempty"`
}

// Response is one server reply frame.
type Response struct {
	Code      int         `json:"code"`
	Msg       string      `json:"msg"`
	Available *bool       `json:"available,omitempty"` // check only
	Domain    *DomainInfo `json:"domain,omitempty"`    // info/create
	// Message and MsgCount carry the poll channel.
	Message  *Message `json:"message,omitempty"`
	MsgCount int      `json:"msgCount,omitempty"`
	// ServerTime lets clients observe registry time; drop-catch tooling uses
	// it to synchronise with the Drop.
	ServerTime time.Time `json:"serverTime"`
}

// OK reports whether the response is a success (1xxx) result.
func (r *Response) OK() bool { return r.Code >= 1000 && r.Code < 2000 }

// Err converts a failure response into an error, nil for successes.
func (r *Response) Err() error {
	if r.OK() {
		return nil
	}
	return &ResultError{Code: r.Code, Msg: r.Msg}
}

// ResultError is a protocol-level failure returned by the server.
type ResultError struct {
	Code int
	Msg  string
}

// Error implements error.
func (e *ResultError) Error() string { return fmt.Sprintf("epp: %d %s", e.Code, e.Msg) }

// ResultCode reports the wire result code. It satisfies the structural
// interface { ResultCode() int } that internal/loadgen uses for its
// per-code breakdown without importing this package.
func (e *ResultError) ResultCode() int { return e.Code }

// IsCode reports whether err is a ResultError carrying code.
func IsCode(err error, code int) bool {
	var re *ResultError
	return errors.As(err, &re) && re.Code == code
}

// framePool holds scratch buffers for frame encoding. Buffers start with the
// 4-byte header reserved and are naturally bounded: a frame never exceeds
// MaxFrame+4 bytes, so pooled capacity stays small.
var framePool = sync.Pool{New: func() any {
	b := make([]byte, 0, 1024)
	return &b
}}

// WriteFrame writes one length-prefixed JSON frame as a single coalesced
// write (header and body in one syscall — under a create storm the second
// syscall per frame is pure overhead). Requests and Responses take the
// allocation-free append encoders; any other value falls back to
// encoding/json. Byte output is identical either way.
func WriteFrame(w io.Writer, v any) error {
	bp := framePool.Get().(*[]byte)
	buf := append((*bp)[:0], 0, 0, 0, 0) // header placeholder
	switch t := v.(type) {
	case *Request:
		buf = appendRequest(buf, t)
	case *Response:
		var ok bool
		if buf, ok = appendResponse(buf, t); !ok {
			// A time field json.Marshal itself cannot encode; delegate so
			// the caller sees the canonical error.
			framePool.Put(bp)
			_, err := json.Marshal(v)
			return fmt.Errorf("epp: marshal frame: %w", err)
		}
	default:
		body, err := json.Marshal(v)
		if err != nil {
			framePool.Put(bp)
			return fmt.Errorf("epp: marshal frame: %w", err)
		}
		buf = append(buf, body...)
	}
	err := writeRaw(w, buf)
	*bp = buf[:0]
	framePool.Put(bp)
	return err
}

// writeRaw length-stamps and writes a frame buffer whose first 4 bytes are
// reserved for the header.
func writeRaw(w io.Writer, buf []byte) error {
	body := len(buf) - 4
	if body > MaxFrame {
		return fmt.Errorf("epp: frame of %d bytes exceeds limit", body)
	}
	binary.BigEndian.PutUint32(buf[:4], uint32(body))
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("epp: write frame: %w", err)
	}
	return nil
}

// ReadFrame reads one length-prefixed JSON frame into v. It allocates a
// fresh body buffer per call; the connection loops use a frameReader, which
// reuses one buffer for the life of the connection.
func ReadFrame(r io.Reader, v any) error {
	var hdr [4]byte
	n, err := readHeader(r, hdr[:])
	if err != nil {
		return err
	}
	body := make([]byte, n)
	return readBody(r, body, v)
}

// readHeader reads and validates the 4-byte length prefix.
func readHeader(r io.Reader, hdr []byte) (uint32, error) {
	if _, err := io.ReadFull(r, hdr); err != nil {
		if errors.Is(err, io.EOF) {
			return 0, io.EOF
		}
		return 0, fmt.Errorf("epp: read frame header: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > MaxFrame {
		return 0, fmt.Errorf("epp: frame of %d bytes exceeds limit", n)
	}
	return n, nil
}

func readBody(r io.Reader, body []byte, v any) error {
	if _, err := io.ReadFull(r, body); err != nil {
		return fmt.Errorf("epp: read frame body: %w", err)
	}
	return decodeFrame(body, v, nil)
}

// decodeFrame unmarshals a frame body: the two wire types take the
// specialised decoders (scratch, when non-nil, is the caller's reusable
// unescape buffer), anything else goes through encoding/json.
func decodeFrame(body []byte, v any, scratch *[]byte) error {
	var cur jsonwire.Cursor
	cur.Reset(body)
	if scratch != nil {
		cur.Scratch = *scratch
	}
	var err error
	switch t := v.(type) {
	case *Request:
		err = decodeRequest(&cur, t)
	case *Response:
		err = decodeResponse(&cur, t)
	default:
		if jerr := json.Unmarshal(body, v); jerr != nil {
			return fmt.Errorf("epp: unmarshal frame: %w", jerr)
		}
		return nil
	}
	if scratch != nil {
		*scratch = cur.Scratch
	}
	if err != nil {
		return fmt.Errorf("epp: decode frame: %w", err)
	}
	return nil
}

// readerPool recycles the bufio layer of connection frame readers; 4 KiB
// covers every frame the protocol's command mix produces, so a frame usually
// costs one read syscall instead of two.
var readerPool = sync.Pool{New: func() any {
	return bufio.NewReaderSize(nil, 4096)
}}

// frameReader decodes frames from one connection with a pooled buffered
// reader and a per-connection body scratch buffer that is reused across
// frames — the read-side half of making the Drop-second hot path
// allocation-free. Not safe for concurrent use; each connection owns one.
type frameReader struct {
	br      *bufio.Reader
	body    []byte
	scratch []byte // unescape buffer shared across this connection's frames
}

func newFrameReader(r io.Reader) *frameReader {
	br := readerPool.Get().(*bufio.Reader)
	br.Reset(r)
	return &frameReader{br: br}
}

// release returns the bufio layer to the pool. The frameReader must not be
// used afterwards.
func (fr *frameReader) release() {
	fr.br.Reset(nil)
	readerPool.Put(fr.br)
	fr.br = nil
}

func (fr *frameReader) read(v any) error {
	var hdr [4]byte
	n, err := readHeader(fr.br, hdr[:])
	if err != nil {
		return err
	}
	if uint32(cap(fr.body)) < n {
		fr.body = make([]byte, n)
	}
	body := fr.body[:n]
	if _, err := io.ReadFull(fr.br, body); err != nil {
		return fmt.Errorf("epp: read frame body: %w", err)
	}
	return decodeFrame(body, v, &fr.scratch)
}
