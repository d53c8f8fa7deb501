// Package inproc adapts an http.Handler into an http.RoundTripper, letting
// HTTP clients exercise a server's full handler stack without TCP sockets.
// cmd/droprepl and the tests reach handlers this way. sim.Run does not: its
// clients are bound to their servers directly (the NewBoundClient of rdap,
// whois, dropscope and safebrowsing). The TCP path stays in use by the
// integration tests, the examples and cmd/dropserve.
package inproc

import (
	"bytes"
	"net/http"
	"strconv"
)

// Transport dispatches requests directly to Handler.
type Transport struct {
	Handler http.Handler
}

// RoundTrip implements http.RoundTripper. The handler runs to completion on
// the calling goroutine; the header map and body it wrote become the
// response's own, without a copy.
func (t Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	rw := &response{header: make(http.Header)}
	t.Handler.ServeHTTP(rw, req)
	if rw.status == 0 {
		rw.status = http.StatusOK
	}
	rw.body.Reset(rw.written)
	resp := &http.Response{
		Status:        statusLine(rw.status),
		StatusCode:    rw.status,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        rw.header,
		Body:          rw,
		ContentLength: -1,
		Request:       req,
	}
	// An absent header is the usual case of an error answer, and parsing ""
	// would allocate the error that says so.
	if cl := rw.header["Content-Length"]; len(cl) > 0 {
		if n, err := strconv.ParseInt(cl[0], 10, 64); err == nil {
			resp.ContentLength = n
		}
	}
	return resp, nil
}

// statusLine is the Status of a response: from a table for the codes the
// repository's handlers answer with most, spelled out for the rest.
func statusLine(code int) string {
	if s, ok := statusLines[code]; ok {
		return s
	}
	return strconv.Itoa(code) + " " + http.StatusText(code)
}

var statusLines = map[int]string{
	200: "200 OK", 304: "304 Not Modified", 400: "400 Bad Request", 404: "404 Not Found", 500: "500 Internal Server Error",
}

// response is the http.ResponseWriter the handler fills and, once the
// handler has returned, the Body of the http.Response made from it.
type response struct {
	header  http.Header
	status  int
	written []byte
	body    bytes.Reader
}

func (r *response) Header() http.Header { return r.header }

// WriteHeader keeps the first status, as net/http does.
func (r *response) WriteHeader(status int) {
	if r.status == 0 {
		r.status = status
	}
}

// Write buffers p, refusing it for the statuses that carry no body, as
// net/http does.
func (r *response) Write(p []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	if r.status < 200 || r.status == http.StatusNoContent || r.status == http.StatusNotModified {
		return 0, http.ErrBodyNotAllowed
	}
	r.written = append(r.written, p...)
	return len(p), nil
}

// Flush implements http.Flusher: it commits the status, and the body is
// buffered until the handler returns either way.
func (r *response) Flush() { r.WriteHeader(http.StatusOK) }

func (r *response) Read(p []byte) (int, error) { return r.body.Read(p) }

// Close implements io.Closer; there is nothing to release.
func (r *response) Close() error { return nil }

// Client returns an *http.Client whose requests are served by handler.
func Client(handler http.Handler) *http.Client {
	return &http.Client{Transport: Transport{Handler: handler}}
}
