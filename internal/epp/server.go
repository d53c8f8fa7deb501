package epp

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"

	"dropzero/internal/model"
	"dropzero/internal/registry"
	"dropzero/internal/serve"
	"dropzero/internal/simtime"
)

// ServerConfig parameterises an EPP server.
type ServerConfig struct {
	// Credentials maps registrar IANA IDs to their login tokens. Logins for
	// unknown IDs or with wrong tokens are rejected with CodeAuthError.
	Credentials map[int]string
	// CreateBurst and CreateRate configure the per-accreditation token
	// bucket applied to create commands. Zero values disable rate limiting.
	CreateBurst float64
	CreateRate  float64
	// Logf, when set, receives one line per connection error; nil is silent.
	Logf func(format string, args ...any)
	// Poll, when set, serves the offline-notification channel and should
	// also be installed as the registry store's Observer so lifecycle and
	// Drop events reach sponsors.
	Poll *PollQueue
	// ReadOnly starts the server with mutating commands (create, renew,
	// update, delete, transfer) rejected with CodePolicyViolation. This is
	// the replica stance: reads are served locally, writes belong to the
	// primary. Flipped at runtime via SetReadOnly — promotion lifts it.
	ReadOnly bool
}

// Server serves the registry over the EPP-like protocol.
type Server struct {
	store    *registry.Store
	clock    simtime.Clock
	cfg      ServerConfig
	limiter  *Limiter
	counters *serverCounters
	readOnly atomic.Bool

	// Conns provides Listen, ServeConn, ServeErr and Close. ServeConn serves
	// one already-established connection until it closes or the server shuts
	// down: storm harnesses and benchmarks pass one end of a net.Pipe so the
	// full framing and dispatch path runs at memory speed, byte-for-byte the
	// TCP path.
	*serve.Conns
}

// NewServer returns a Server over store.
func NewServer(store *registry.Store, clock simtime.Clock, cfg ServerConfig) *Server {
	s := &Server{
		store: store, clock: clock, cfg: cfg,
		counters: newServerCounters(),
	}
	s.Conns = serve.NewConns("epp", s.serveConn)
	if cfg.CreateBurst > 0 && cfg.CreateRate > 0 {
		s.limiter = NewLimiter(clock, cfg.CreateBurst, cfg.CreateRate)
	}
	s.readOnly.Store(cfg.ReadOnly)
	return s
}

// SetReadOnly flips the mutating-command gate at runtime: a replica serves
// with it set, and promotion to primary clears it. Commands already past
// the gate are unaffected — on a replica there are none, because the gate
// was up before the listener.
func (s *Server) SetReadOnly(v bool) { s.readOnly.Store(v) }

// ReadOnly reports whether mutating commands are currently rejected.
func (s *Server) ReadOnly() bool { return s.readOnly.Load() }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// ConnectInProc returns a client whose connection is a net.Pipe served by
// this server — the in-process EPP transport.
func (s *Server) ConnectInProc() *Client {
	cli, srv := net.Pipe()
	go s.ServeConn(srv)
	return NewClientConn(cli)
}

// session is per-connection login state.
type session struct {
	registrarID int
	loggedIn    bool
}

func (s *Server) serveConn(conn net.Conn) {
	s.counters.conns.Add(1)
	fr := newFrameReader(conn)
	defer fr.release()
	// One Request and one Response are reused for the life of the
	// connection; frames are decoded through the connection's pooled reader
	// and encoded with the append encoders, so a steady-state command costs
	// no per-frame buffer allocations on this side of the wire.
	var sess session
	var req Request
	var resp Response
	for {
		req = Request{}
		if err := readFrame(fr, &req); err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.logf("epp: %s: %v", conn.RemoteAddr(), err)
			}
			return
		}
		s.handle(&sess, &req, &resp)
		if err := WriteFrame(conn, &resp); err != nil {
			s.logf("epp: %s: %v", conn.RemoteAddr(), err)
			return
		}
		if req.Cmd == CmdLogout {
			return
		}
	}
}

// Handle executes one command against the registry. It is exported so the
// in-process transport used by large simulations exercises exactly the same
// dispatch logic as the TCP path.
func (s *Server) Handle(sess *session, req *Request) *Response {
	resp := &Response{}
	s.handle(sess, req, resp)
	return resp
}

// handle dispatches into resp, which it fully overwrites.
func (s *Server) handle(sess *session, req *Request, resp *Response) {
	*resp = Response{ServerTime: simtime.Trunc(s.clock.Now())}
	switch req.Cmd {
	case CmdLogin:
		s.handleLogin(sess, req, resp)
	case CmdLogout:
		sess.loggedIn = false
		resp.Code, resp.Msg = CodeLoggedOut, msgLoggedOut
	case CmdCheck:
		s.requireLogin(sess, resp, func() { s.handleCheck(req, resp) })
	case CmdInfo:
		s.requireLogin(sess, resp, func() { s.handleInfo(sess, req, resp) })
	case CmdCreate:
		s.requireWritable(sess, resp, func() { s.handleCreate(sess, req, resp) })
	case CmdRenew:
		s.requireWritable(sess, resp, func() { s.handleRenew(sess, req, resp) })
	case CmdUpdate:
		s.requireWritable(sess, resp, func() { s.handleUpdate(sess, req, resp) })
	case CmdDelete:
		s.requireWritable(sess, resp, func() { s.handleDelete(sess, req, resp) })
	case CmdPoll:
		s.requireLogin(sess, resp, func() { s.handlePoll(sess, req, resp) })
	case CmdTransfer:
		s.requireWritable(sess, resp, func() { s.handleTransfer(sess, req, resp) })
	default:
		resp.Code, resp.Msg = CodeUnknownCommand, fmt.Sprintf("unknown command %q", req.Cmd)
	}
	s.counters.record(req.Cmd, resp.Code)
}

// Interned result messages: the hot-path outcomes answer with static strings
// (RFC 5730-style default result text) instead of formatting a fresh message
// per frame. Parameter errors keep their diagnostic err.Error() text — they
// are off the storm path and the detail matters there.
const (
	msgOK              = "command completed successfully"
	msgLoggedOut       = "command completed successfully; ending session"
	msgNoMessages      = "command completed successfully; no messages"
	msgAckToDequeue    = "command completed successfully; ack to dequeue"
	msgNotLoggedIn     = "command use error; login first"
	msgAuthError       = "authentication error"
	msgRateLimited     = "session limit exceeded; try again later"
	msgObjectExists    = "object exists"
	msgObjectNotFound  = "object does not exist"
	msgAuthorization   = "authorization error"
	msgBadAuthInfo     = "invalid authorization information"
	msgStatusProhibits = "object status prohibits operation"
	msgReadOnly        = "data management policy violation; server is a read-only replica, direct writes to the primary"
)

// resultMsg maps a store failure to its interned message; codes without a
// canonical text fall back to the error's own description.
func resultMsg(code int, err error) string {
	switch code {
	case CodeObjectExists:
		return msgObjectExists
	case CodeObjectNotFound:
		return msgObjectNotFound
	case CodeAuthorization:
		return msgAuthorization
	case CodeBadAuthInfo:
		return msgBadAuthInfo
	case CodeStatusProhibits:
		return msgStatusProhibits
	}
	return err.Error()
}

func (s *Server) requireLogin(sess *session, resp *Response, fn func()) {
	if !sess.loggedIn {
		resp.Code, resp.Msg = CodeNotLoggedIn, msgNotLoggedIn
		return
	}
	fn()
}

// requireWritable gates mutating commands: login first, then the read-only
// check, so a replica still authenticates sessions (check/info/poll need
// them) but refuses writes with an unambiguous, machine-actionable code.
func (s *Server) requireWritable(sess *session, resp *Response, fn func()) {
	s.requireLogin(sess, resp, func() {
		if s.readOnly.Load() {
			resp.Code, resp.Msg = CodePolicyViolation, msgReadOnly
			return
		}
		fn()
	})
}

func (s *Server) handleLogin(sess *session, req *Request, resp *Response) {
	token, ok := s.cfg.Credentials[req.Registrar]
	if !ok || token != req.Token {
		resp.Code, resp.Msg = CodeAuthError, msgAuthError
		return
	}
	if _, ok := s.store.Registrar(req.Registrar); !ok {
		resp.Code, resp.Msg = CodeAuthError, "unknown accreditation"
		return
	}
	sess.registrarID = req.Registrar
	sess.loggedIn = true
	resp.Code, resp.Msg = CodeOK, msgOK
}

func (s *Server) handleCheck(req *Request, resp *Response) {
	avail, err := s.store.Available(req.Name)
	if err != nil {
		resp.Code, resp.Msg = CodeParamRange, err.Error()
		return
	}
	resp.Code, resp.Msg = CodeOK, msgOK
	resp.Available = &avail
}

func (s *Server) handleInfo(sess *session, req *Request, resp *Response) {
	d, err := s.store.Get(req.Name)
	if err != nil {
		resp.Code, resp.Msg = CodeObjectNotFound, msgObjectNotFound
		return
	}
	resp.Code, resp.Msg = CodeOK, msgOK
	resp.Domain = toInfo(d)
	if d.RegistrarID == sess.registrarID {
		if auth, err := s.store.AuthInfo(req.Name, sess.registrarID); err == nil {
			resp.Domain.AuthInfo = auth
		}
	}
}

func (s *Server) handleTransfer(sess *session, req *Request, resp *Response) {
	if err := s.store.Transfer(req.Name, sess.registrarID, req.AuthInfo); err != nil {
		code := storeCode(err)
		resp.Code, resp.Msg = code, resultMsg(code, err)
		return
	}
	resp.Code, resp.Msg = CodeOK, msgOK
}

func (s *Server) handleCreate(sess *session, req *Request, resp *Response) {
	years := req.Years
	if years == 0 {
		years = 1
	}
	// Validate the command before charging the per-accreditation token
	// bucket: the bucket is the scarce resource drop-catchers race over, and
	// charging first would let anyone who knows a competitor's login burn
	// that competitor's create budget with free invalid-name spam.
	if err := s.store.CheckName(req.Name); err != nil {
		resp.Code, resp.Msg = CodeParamRange, err.Error()
		return
	}
	if years < 1 || years > 10 {
		resp.Code, resp.Msg = CodeParamRange, fmt.Sprintf("invalid term %d years", years)
		return
	}
	if s.limiter != nil && !s.limiter.Allow(sess.registrarID) {
		resp.Code, resp.Msg = CodeRateLimited, msgRateLimited
		return
	}
	d, err := s.store.Create(req.Name, sess.registrarID, years)
	if err != nil {
		code := storeCode(err)
		resp.Code, resp.Msg = code, resultMsg(code, err)
		return
	}
	resp.Code, resp.Msg = CodeOK, msgOK
	resp.Domain = toInfo(&d)
}

func (s *Server) handleRenew(sess *session, req *Request, resp *Response) {
	years := req.Years
	if years == 0 {
		years = 1
	}
	if err := s.store.Renew(req.Name, sess.registrarID, years); err != nil {
		code := storeCode(err)
		resp.Code, resp.Msg = code, resultMsg(code, err)
		return
	}
	resp.Code, resp.Msg = CodeOK, msgOK
}

func (s *Server) handleUpdate(sess *session, req *Request, resp *Response) {
	if err := s.store.Touch(req.Name, sess.registrarID); err != nil {
		code := storeCode(err)
		resp.Code, resp.Msg = code, resultMsg(code, err)
		return
	}
	resp.Code, resp.Msg = CodeOK, msgOK
}

func (s *Server) handleDelete(sess *session, req *Request, resp *Response) {
	d, err := s.store.Get(req.Name)
	if err != nil {
		resp.Code, resp.Msg = CodeObjectNotFound, msgObjectNotFound
		return
	}
	if d.RegistrarID != sess.registrarID {
		resp.Code, resp.Msg = CodeAuthorization, msgAuthorization
		return
	}
	if d.Status != model.StatusActive && d.Status != model.StatusAutoRenew {
		resp.Code, resp.Msg = CodeStatusProhibits, msgStatusProhibits
		return
	}
	// A registrar delete sends the domain into the redemption period; its
	// Updated timestamp — set now — becomes the future deletion-order key.
	if err := s.store.MarkRedemption(req.Name, s.clock.Now()); err != nil {
		code := storeCode(err)
		resp.Code, resp.Msg = code, resultMsg(code, err)
		return
	}
	resp.Code, resp.Msg = CodeOK, msgOK
}

func (s *Server) handlePoll(sess *session, req *Request, resp *Response) {
	if s.cfg.Poll == nil {
		resp.Code, resp.Msg = CodeUnknownCommand, "poll channel not offered"
		return
	}
	switch req.PollOp {
	case PollOpRequest, "":
		msg, count, ok := s.cfg.Poll.Peek(sess.registrarID)
		if !ok {
			resp.Code, resp.Msg = CodeNoMessages, msgNoMessages
			return
		}
		resp.Code, resp.Msg = CodeAckToDequeue, msgAckToDequeue
		resp.Message = &msg
		resp.MsgCount = count
	case PollOpAck:
		if err := s.cfg.Poll.Ack(sess.registrarID, req.MsgID); err != nil {
			resp.Code, resp.Msg = CodeParamRange, err.Error()
			return
		}
		resp.Code, resp.Msg = CodeOK, msgOK
		resp.MsgCount = s.cfg.Poll.Len(sess.registrarID)
	default:
		resp.Code, resp.Msg = CodeParamRange, fmt.Sprintf("unknown poll op %q", req.PollOp)
	}
}

func storeCode(err error) int {
	switch {
	case errors.Is(err, registry.ErrExists):
		return CodeObjectExists
	case errors.Is(err, registry.ErrNotFound):
		return CodeObjectNotFound
	case errors.Is(err, registry.ErrWrongRegistrar):
		return CodeAuthorization
	case errors.Is(err, registry.ErrBadAuthInfo):
		return CodeBadAuthInfo
	case errors.Is(err, registry.ErrStatusProhibits):
		return CodeStatusProhibits
	case errors.Is(err, registry.ErrBadName), errors.Is(err, registry.ErrUnknownTLD):
		return CodeParamRange
	case errors.Is(err, registry.ErrUnknownRegistrar):
		return CodeAuthError
	default:
		return CodeCommandFailed
	}
}

func toInfo(d *model.Domain) *DomainInfo {
	return &DomainInfo{
		ID:        d.ID,
		Name:      d.Name,
		Registrar: d.RegistrarID,
		Created:   d.Created,
		Updated:   d.Updated,
		Expiry:    d.Expiry,
		Status:    d.Status.String(),
	}
}
