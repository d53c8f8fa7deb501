// Package serve is the listen/accept/close scaffold of the registry's TCP
// and HTTP surfaces, and the one writer of their cached answers (Body).
// ServeErr keeps what stopped serving, unless Close did.
package serve

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// readHeaderTimeout bounds the wait for a request's headers, so a client that
// dribbles a request line cannot hold a goroutine and a descriptor for ever.
var readHeaderTimeout = 10 * time.Second

type serveErr struct{ v atomic.Value }

// ServeErr returns the error background serving stopped with: nil while
// serving and after a clean Close.
func (e *serveErr) ServeErr() error {
	err, _ := e.v.Load().(error)
	return err
}

// HTTP serves one handler over TCP.
type HTTP struct {
	serveErr
	name string
	srv  http.Server
	live sync.WaitGroup // the serving goroutine and every connection's
}

// NewHTTP returns a server for h; name prefixes its errors.
func NewHTTP(name string, h http.Handler) *HTTP {
	s := &HTTP{name: name, srv: http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout}}
	// A connection's goroutine reports its end as the last thing it does.
	s.srv.ConnState = func(_ net.Conn, state http.ConnState) {
		switch state {
		case http.StateNew:
			s.live.Add(1)
		case http.StateHijacked, http.StateClosed:
			s.live.Done()
		}
	}
	return s
}

// Handler returns the served handler, for httptest and in-process callers.
func (h *HTTP) Handler() http.Handler { return h.srv.Handler }

// Listen binds addr, serves it until Close and returns the bound address.
func (h *HTTP) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("%s: listen %s: %w", h.name, addr, err)
	}
	h.serve(ln)
	return ln.Addr(), nil
}

// serve serves ln on a new goroutine until Close.
func (h *HTTP) serve(ln net.Listener) {
	h.live.Add(1)
	go func() {
		defer h.live.Done()
		if err := h.srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			h.v.Store(fmt.Errorf("%s: serve: %w", h.name, err))
		}
	}()
}

// Close closes the listener and every connection and waits for their
// goroutines, so nothing the handler reaches is in use once it returns.
func (h *HTTP) Close() error { defer h.live.Wait(); return h.srv.Close() }

// Body is one rendered answer of a read surface with its header values
// built once, so serving it from a cache allocates nothing of its own. It
// is immutable once built.
type Body struct {
	Bytes            []byte
	etag             string
	etagVal, clenVal []string // {etag}, {len(Bytes)}
}

// NewBody returns b with the strong validator etag. An empty etag marks a
// body rendered while its source moved: served once, never cached, never a
// 304.
func NewBody(b []byte, etag string) Body {
	body := Body{Bytes: b, etag: etag, clenVal: []string{strconv.Itoa(len(b))}}
	if etag != "" {
		body.etagVal = []string{etag}
	}
	return body
}

// Write answers r with b: 304 when r's If-None-Match names b's ETag, else
// 200 with contentType, Content-Length set up front (a client detects a
// truncated body) and, unless r is a HEAD, the bytes, whose write error it
// returns. Headers the caller set go out with either answer.
func (b *Body) Write(w http.ResponseWriter, r *http.Request, contentType []string) error {
	h := w.Header()
	if b.etag != "" {
		h["Etag"] = b.etagVal
		if r.Header.Get("If-None-Match") == b.etag {
			w.WriteHeader(http.StatusNotModified)
			return nil
		}
	}
	h["Content-Type"] = contentType
	h["Content-Length"] = b.clenVal
	if r.Method == http.MethodHead {
		return nil
	}
	_, err := w.Write(b.Bytes)
	return err
}

// Conns runs one handler per TCP connection, accepted or handed in.
type Conns struct {
	serveErr
	name string
	fn   func(net.Conn)

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewConns returns a set that serves each connection with fn; name prefixes
// its errors.
func NewConns(name string, fn func(net.Conn)) *Conns {
	return &Conns{name: name, fn: fn, conns: make(map[net.Conn]struct{})}
}

// Listen binds addr and serves each connection accepted there on its own
// goroutine until Close. Listen after Close is an error.
func (c *Conns) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("%s: listen %s: %w", c.name, addr, err)
	}
	return ln.Addr(), c.serve(ln)
}

// serve serves each connection accepted on ln on its own goroutine until
// Close. serve after Close closes ln and is an error.
func (c *Conns) serve(ln net.Listener) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		ln.Close()
		return fmt.Errorf("%s: closed", c.name)
	}
	c.ln = ln
	c.wg.Add(1)
	go c.accept(ln)
	return nil
}

// accept follows net/http: out of descriptors or a connection aborted early
// is retried after 5 ms, doubling to 1 s; any other error ends the loop.
func (c *Conns) accept(ln net.Listener) {
	defer c.wg.Done()
	var delay time.Duration
	for {
		conn, err := ln.Accept()
		switch {
		case err == nil:
			delay = 0
			go c.ServeConn(conn)
		case errors.Is(err, syscall.EMFILE), errors.Is(err, syscall.ENFILE), errors.Is(err, syscall.ECONNABORTED):
			delay = min(max(2*delay, 5*time.Millisecond), time.Second)
			time.Sleep(delay)
		default:
			c.mu.Lock()
			if !c.closed {
				c.v.Store(fmt.Errorf("%s: accept: %w", c.name, err))
			}
			c.mu.Unlock()
			return
		}
	}
}

// ServeConn serves conn on the calling goroutine, tracked like an accepted
// connection, then closes it. After Close it only closes conn. Tracking and
// the closed check share Close's lock, so `go c.ServeConn(conn)` is safe.
func (c *Conns) ServeConn(conn net.Conn) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		conn.Close()
		return
	}
	c.conns[conn] = struct{}{}
	c.wg.Add(1)
	c.mu.Unlock()
	defer c.wg.Done()
	c.fn(conn)
	conn.Close()
	c.mu.Lock()
	delete(c.conns, conn)
	c.mu.Unlock()
}

// Close closes the listener and every connection, then waits for the accept
// loop and every handler. A second Close returns nil.
func (c *Conns) Close() (err error) {
	c.mu.Lock()
	if c.ln != nil {
		err = c.ln.Close()
	}
	c.ln, c.closed = nil, true
	for conn := range c.conns {
		conn.Close()
	}
	c.mu.Unlock()
	c.wg.Wait()
	return err
}
