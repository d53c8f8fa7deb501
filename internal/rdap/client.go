package rdap

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync/atomic"
	"time"

	"dropzero/internal/model"
)

// Client errors callers branch on.
var (
	// ErrNotFound means the domain is not registered (HTTP 404) — for the
	// measurement pipeline this is a positive signal, not a failure.
	ErrNotFound = errors.New("rdap: domain not registered")
	// ErrServer covers 5xx responses; the pipeline falls back to WHOIS.
	ErrServer = errors.New("rdap: server error")
	// ErrMalformed means the service answered 200 with a well-formed object
	// that does not describe a registration: no parsable handle, no
	// registrar entity or a missing lifecycle event. Asking another
	// protocol about the same name would not help, so the pipeline does not.
	ErrMalformed = errors.New("rdap: unusable domain object")
)

// notFoundError is ErrNotFound for one name. Half the study's lookups end in
// it and nobody reads its text, so the text is put together only on demand.
type notFoundError string

func (e notFoundError) Error() string { return ErrNotFound.Error() + ": " + string(e) }
func (e notFoundError) Unwrap() error { return ErrNotFound }

// maxBody caps how much of a 200 body the HTTP client reads.
const maxBody = 1 << 20

// Client queries an RDAP service, over HTTP (NewClient) or bound straight to
// a Server in the same process (NewBoundClient). It is safe for concurrent
// use: all state but one counter is immutable after construction and the
// underlying *http.Client is itself concurrency-safe, so one Client can serve
// a whole lookup worker pool (and share the transport's connection pool
// across workers).
type Client struct {
	// srv is set on a bound client, the other three on an HTTP one.
	srv  *Server
	base *url.URL
	http *http.Client
	// tmpl is the GET every request is a copy of; its header map is shared
	// by all of them.
	tmpl http.Request
	// fullDecodes counts the Registration calls whose 200 body was not in
	// the layout the one-pass reader matches.
	fullDecodes atomic.Uint64
}

// NewClient returns a Client for the RDAP service at baseURL (e.g.
// "http://127.0.0.1:8430"). httpClient may be nil for a default with a 10 s
// timeout.
func NewClient(baseURL string, httpClient *http.Client) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("rdap: parse base URL: %w", err)
	}
	if httpClient == nil {
		httpClient = &http.Client{Timeout: 10 * time.Second}
	}
	return &Client{base: u, http: httpClient, tmpl: http.Request{
		Method:     http.MethodGet,
		Host:       u.Host,
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     http.Header{"Accept": rdapMediaType},
	}}, nil
}

// NewBoundClient returns a Client whose lookups call srv.render: answers,
// errors and request counts of an HTTP client over srv.Handler(), without
// the request, the response or the response cache (its counters stay put).
func NewBoundClient(srv *Server) *Client { return &Client{srv: srv} }

// Domain fetches the RDAP domain object for name.
func (c *Client) Domain(ctx context.Context, name string) (*DomainResponse, error) {
	var dr *DomainResponse
	err := c.lookup(ctx, name, func(body []byte) error {
		dr = new(DomainResponse)
		return decodeDomainResponse(body, dr)
	})
	if err != nil {
		return nil, err
	}
	return dr, nil
}

// Registration fetches the five fields of name's registration the
// measurement keeps — (*DomainResponse).Registration of what Domain returns,
// without building the rest of the object. A 200 those fields cannot be
// taken from is ErrMalformed.
func (c *Client) Registration(ctx context.Context, name string) (reg model.PriorRegistration, err error) {
	err = c.lookup(ctx, name, func(body []byte) (err error) {
		var full bool
		if reg, full, err = decodeRegistration(body); full {
			c.fullDecodes.Add(1)
		}
		return err
	})
	return reg, err
}

// FullDecodes is how many Registration calls read their answer through the
// full decoder instead of the one-pass reader: none, against this package's
// server — a study's lookups cost about twice as much each when the renderer
// and the reader's layout drift apart, and nothing else would show it.
func (c *Client) FullDecodes() uint64 { return c.fullDecodes.Load() }

// lookup hands the body of the 200 answer for name to decode — in a pooled
// buffer on either transport, which decode must not keep or change — or
// returns the error the answer's status maps to, the same on both.
func (c *Client) lookup(ctx context.Context, name string, decode func(body []byte) error) error {
	var status int
	var err error
	if c.srv == nil {
		status, err = c.roundTrip(ctx, name, decode)
	} else if err = ctx.Err(); err == nil { // no transport to notice a cancelled context
		status, err = c.srv.render(name, decode)
	}
	switch {
	case err != nil:
		return fmt.Errorf("rdap: lookup %s: %w", name, err)
	case status == http.StatusOK:
		return nil
	case status == http.StatusNotFound:
		return notFoundError(name)
	case status >= 500:
		return fmt.Errorf("%w: HTTP %d for %s", ErrServer, status, name)
	default:
		return fmt.Errorf("rdap: unexpected HTTP %d for %s", status, name)
	}
}

// roundTrip is one GET: a 200 body goes to decode, any other status comes
// back as it is.
func (c *Client) roundTrip(ctx context.Context, name string, decode func(body []byte) error) (status int, err error) {
	u := *c.base
	u.Path = "/domain/" + name
	req := c.tmpl.WithContext(ctx)
	req.URL = &u
	if c.http.Jar != nil {
		req.Header = req.Header.Clone() // net/http adds the jar's cookies to it
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// Read a bounded rest of the error body, or net/http closes the
		// connection instead of reusing it — and 404 is the usual answer
		// for a name nobody re-registered.
		_, _ = io.CopyN(io.Discard, resp.Body, 4<<10)
		return resp.StatusCode, nil
	}
	// Into a pooled buffer, sized once from Content-Length (ReadFrom wants
	// MinRead bytes free even to learn of EOF).
	bp := bodyBufs.Get().(*[]byte)
	defer bodyBufs.Put(bp)
	buf := bytes.NewBuffer((*bp)[:0])
	if n := resp.ContentLength; 0 < n && n < maxBody {
		buf.Grow(int(n) + bytes.MinRead)
	}
	_, err = buf.ReadFrom(io.LimitReader(resp.Body, maxBody))
	if *bp = buf.Bytes(); err != nil {
		return 0, fmt.Errorf("read response: %w", err)
	}
	return http.StatusOK, decode(*bp)
}
