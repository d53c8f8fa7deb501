package rdap

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"
)

// Client errors callers branch on.
var (
	// ErrNotFound means the domain is not registered (HTTP 404) — for the
	// measurement pipeline this is a positive signal, not a failure.
	ErrNotFound = errors.New("rdap: domain not registered")
	// ErrServer covers 5xx responses; the pipeline falls back to WHOIS.
	ErrServer = errors.New("rdap: server error")
)

// Client queries an RDAP service. It is safe for concurrent use: all state
// is immutable after NewClient and the underlying *http.Client is itself
// concurrency-safe, so one Client can serve a whole lookup worker pool (and
// share the transport's connection pool across workers).
type Client struct {
	base *url.URL
	http *http.Client
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
	return &Client{base: u, http: httpClient}, nil
}

// Domain fetches the RDAP domain object for name.
func (c *Client) Domain(ctx context.Context, name string) (*DomainResponse, error) {
	u := *c.base
	u.Path = "/domain/" + name
	req := (&http.Request{
		Method:     http.MethodGet,
		URL:        &u,
		Host:       u.Host,
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     http.Header{"Accept": rdapMediaType},
	}).WithContext(ctx)
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("rdap: GET %s: %w", u.String(), err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// Read a bounded rest of the error body, or net/http closes the
		// connection instead of reusing it — and 404 is the usual answer
		// for a name nobody re-registered.
		_, _ = io.CopyN(io.Discard, resp.Body, 4<<10)
	}
	switch {
	case resp.StatusCode == http.StatusOK:
		body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		if err != nil {
			return nil, fmt.Errorf("rdap: read response for %s: %w", name, err)
		}
		var dr DomainResponse
		if err := decodeDomainResponse(body, &dr); err != nil {
			return nil, fmt.Errorf("rdap: decode response for %s: %w", name, err)
		}
		return &dr, nil
	case resp.StatusCode == http.StatusNotFound:
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	case resp.StatusCode >= 500:
		return nil, fmt.Errorf("%w: HTTP %d for %s", ErrServer, resp.StatusCode, name)
	default:
		return nil, fmt.Errorf("rdap: unexpected HTTP %d for %s", resp.StatusCode, name)
	}
}
