package serve

import (
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// script is a listener whose Accept returns what the test sends on next (a
// net.Conn or an error), then net.ErrClosed once closed.
type script struct {
	next chan any
	once sync.Once
}

func (l *script) Accept() (net.Conn, error) {
	v, ok := <-l.next
	if !ok {
		return nil, net.ErrClosed
	}
	if err, ok := v.(error); ok {
		return nil, err
	}
	return v.(net.Conn), nil
}

func (l *script) Close() error   { l.once.Do(func() { close(l.next) }); return nil }
func (l *script) Addr() net.Addr { return &net.TCPAddr{} }

// TestServeErr: a listener closed under a serving surface is recorded; one
// closed by Close is not.
func TestServeErr(t *testing.T) {
	for name, start := range map[string]func(net.Listener) (serveErr, close func() error){
		"HTTP": func(ln net.Listener) (func() error, func() error) {
			h := NewHTTP("h", http.NotFoundHandler())
			h.serve(ln)
			return h.ServeErr, h.Close
		},
		"Conns": func(ln net.Listener) (func() error, func() error) {
			c := NewConns("c", func(net.Conn) {})
			_ = c.serve(ln) // fails only after Close
			return c.ServeErr, c.Close
		},
	} {
		ln := &script{next: make(chan any)}
		serveErr, _ := start(ln)
		ln.Close()
		for deadline := time.Now().Add(2 * time.Second); serveErr() == nil && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		if !errors.Is(serveErr(), net.ErrClosed) {
			t.Errorf("%s: removed listener recorded %v", name, serveErr())
		}

		serveErr, closeFn := start(&script{next: make(chan any)})
		if err := closeFn(); err != nil {
			t.Fatalf("%s: Close: %v", name, err)
		}
		time.Sleep(10 * time.Millisecond)
		if err := serveErr(); err != nil {
			t.Errorf("%s: clean Close recorded %v", name, err)
		}
	}
}

// TestConnsAcceptAndClose: EMFILE is retried, any other accept error is kept
// and ends the loop; Close is idempotent, and Listen or a connection handed
// in after it is refused.
func TestConnsAcceptAndClose(t *testing.T) {
	ln := &script{next: make(chan any)}
	served := make(chan struct{}, 2)
	c := NewConns("c", func(net.Conn) { served <- struct{}{} })
	_ = c.serve(ln) // fails only after Close
	emfile := &net.OpError{Op: "accept", Net: "tcp", Err: syscall.EMFILE}
	_, server := net.Pipe()
	ln.next <- emfile
	ln.next <- emfile
	ln.next <- server
	<-served
	if err := c.ServeErr(); err != nil {
		t.Fatalf("EMFILE recorded: %v", err)
	}
	ln.next <- errors.New("broken")
	c.wg.Wait() // the accept loop has exited
	if c.ServeErr() == nil {
		t.Fatal("a non-temporary accept error was not recorded")
	}
	if err := errors.Join(c.Close(), c.Close()); err != nil {
		t.Fatalf("Close twice: %v", err)
	}
	if _, err := c.Listen("127.0.0.1:0"); err == nil {
		t.Fatal("Listen after Close succeeded")
	}
	client, server := net.Pipe()
	c.ServeConn(server)
	if _, err := client.Read(make([]byte, 1)); err != io.EOF || len(served) > 0 {
		t.Fatalf("connection handed in after Close: read %v, served %d times", err, len(served))
	}
}

// TestHeaderTimeout: a client that never finishes its request line has its
// connection closed.
func TestHeaderTimeout(t *testing.T) {
	defer func(d time.Duration) { readHeaderTimeout = d }(readHeaderTimeout)
	readHeaderTimeout = 50 * time.Millisecond
	h := NewHTTP("h", http.NotFoundHandler())
	addr, err := h.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	io.WriteString(conn, "GET /help HT") // a failed write fails the read below
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("half-sent request still open: %v", err)
	}
}

// TestHTTPCloseWaitsForConnections: Close returns only after every
// connection's goroutine is done with the handler, so nothing the handler
// reaches is still in use by then.
func TestHTTPCloseWaitsForConnections(t *testing.T) {
	started := make(chan struct{})
	var finished atomic.Bool
	h := NewHTTP("h", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(started)
		<-r.Context().Done()
		time.Sleep(50 * time.Millisecond)
		finished.Store(true)
	}))
	addr, err := h.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET / HTTP/1.1\r\nHost: h\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	<-started
	if err := errors.Join(h.Close(), h.Close()); err != nil {
		t.Fatalf("Close twice: %v", err)
	}
	if !finished.Load() {
		t.Fatal("Close returned while a handler was still running")
	}
}

// TestBodyWrite: a Body with an ETag answers a matching If-None-Match with a
// bare 304; one without never does; a HEAD gets the 200's headers and no
// bytes.
func TestBodyWrite(t *testing.T) {
	tagged, untagged := NewBody([]byte("a,2018-01-02\n"), `"7"`), NewBody([]byte("abc"), "")
	csv := []string{"text/csv"}
	for _, c := range []struct {
		name        string
		body        *Body
		method, inm string
		status      int
		etag, clen  string
		bytes       string
	}{
		{"get", &tagged, http.MethodGet, "", 200, `"7"`, "13", "a,2018-01-02\n"},
		{"revalidate", &tagged, http.MethodGet, `"7"`, 304, `"7"`, "", ""},
		{"stale", &tagged, http.MethodGet, `"6"`, 200, `"7"`, "13", "a,2018-01-02\n"},
		{"head", &tagged, http.MethodHead, "", 200, `"7"`, "13", ""},
		{"untagged", &untagged, http.MethodGet, "", 200, "", "3", "abc"},
		{"untagged-empty-inm", &untagged, http.MethodGet, `""`, 200, "", "3", "abc"},
	} {
		req := httptest.NewRequest(c.method, "/x", nil)
		if c.inm != "" {
			req.Header.Set("If-None-Match", c.inm)
		}
		rec := httptest.NewRecorder()
		if err := c.body.Write(rec, req, csv); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		h := rec.Header()
		if rec.Code != c.status || h.Get("ETag") != c.etag || h.Get("Content-Length") != c.clen || rec.Body.String() != c.bytes {
			t.Errorf("%s: %d ETag %q Content-Length %q body %q", c.name, rec.Code, h.Get("ETag"), h.Get("Content-Length"), rec.Body)
		}
		if wantType := c.status == 200; (h.Get("Content-Type") != "") != wantType {
			t.Errorf("%s: Content-Type %q on a %d", c.name, h.Get("Content-Type"), rec.Code)
		}
	}
}
