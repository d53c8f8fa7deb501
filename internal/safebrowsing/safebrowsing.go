// Package safebrowsing provides the maliciousness oracle standing in for the
// Google Safe Browsing API the paper queried nine weeks after each
// re-registration. The oracle serves a simple HTTP lookup API over a label
// set produced by a synthetic labelling model.
//
// The model reproduces the paper's §4.4 observations without asserting any
// causal story: the *majority count* of later-malicious domains sits in the
// huge 0 s delay class (mostly parked domains serving bad ads), while the
// *rate* peaks around 30–60 s delays (~2 %) and stays at 0.4 % for 0 s
// re-registrations, below 0.5 % overall.
package safebrowsing

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"dropzero/internal/serve"
)

// LabelModel decides synthetic maliciousness as a function of the
// re-registration delay.
type LabelModel struct {
	// Rate0s applies to delays < 30 s (the paper: 0.4 % at 0 s).
	Rate0s float64
	// RateBurst applies to delays in [30 s, 60 s] (the paper: ≈2 %).
	RateBurst float64
	// RateLate applies to everything slower.
	RateLate float64
}

// DefaultLabelModel returns the calibrated rates.
func DefaultLabelModel() LabelModel {
	return LabelModel{Rate0s: 0.004, RateBurst: 0.02, RateLate: 0.005}
}

// Label draws a maliciousness flag for a re-registration with the given
// delay.
func (m LabelModel) Label(delay time.Duration, rng *rand.Rand) bool {
	var p float64
	switch {
	case delay < 30*time.Second:
		p = m.Rate0s
	case delay <= 60*time.Second:
		p = m.RateBurst
	default:
		p = m.RateLate
	}
	return rng.Float64() < p
}

// Oracle stores labels and serves lookups. Safe for concurrent use.
type Oracle struct {
	*serve.HTTP // Handler, Listen, ServeErr and Close

	mu     sync.RWMutex
	labels map[string]bool
}

// NewOracle returns an empty Oracle.
func NewOracle() *Oracle {
	o := &Oracle{labels: make(map[string]bool)}
	mux := http.NewServeMux()
	mux.HandleFunc("/v4/lookup", o.handleLookup)
	o.HTTP = serve.NewHTTP("safebrowsing", mux)
	return o
}

// Set records a domain's label.
func (o *Oracle) Set(name string, malicious bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.labels[strings.ToLower(name)] = malicious
}

// Lookup returns the stored label; absent domains are benign.
func (o *Oracle) Lookup(name string) bool {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.labels[strings.ToLower(name)]
}

// Count returns the number of labelled domains.
func (o *Oracle) Count() int {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return len(o.labels)
}

type lookupResponse struct {
	Name      string `json:"name"`
	Malicious bool   `json:"malicious"`
}

func (o *Oracle) handleLookup(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if name == "" {
		http.Error(w, "missing name parameter", http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(lookupResponse{Name: name, Malicious: o.Lookup(name)})
}

// Client queries a remote Oracle, or a bound one (NewBoundClient).
type Client struct {
	oracle *Oracle // set on a bound client, the other two on an HTTP one
	base   *url.URL
	http   *http.Client
}

// NewBoundClient returns a Client that reads o's labels directly, with the
// answers and errors of an HTTP client over o.Handler().
func NewBoundClient(o *Oracle) *Client { return &Client{oracle: o} }

// NewClient returns a Client for the oracle at baseURL.
func NewClient(baseURL string, httpClient *http.Client) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("safebrowsing: parse base URL: %w", err)
	}
	if httpClient == nil {
		httpClient = &http.Client{Timeout: 10 * time.Second}
	}
	return &Client{base: u, http: httpClient}, nil
}

// Lookup queries one domain's label.
func (c *Client) Lookup(name string) (bool, error) {
	if c.oracle != nil {
		if name == "" {
			return false, fmt.Errorf("safebrowsing: empty name")
		}
		return c.oracle.Lookup(name), nil
	}
	u := *c.base
	u.Path = "/v4/lookup"
	u.RawQuery = url.Values{"name": {name}}.Encode()
	resp, err := c.http.Get(u.String())
	if err != nil {
		return false, fmt.Errorf("safebrowsing: GET %s: %w", u.String(), err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// Read a bounded rest of the error body so the connection is reused.
		_, _ = io.CopyN(io.Discard, resp.Body, 4<<10)
		return false, fmt.Errorf("safebrowsing: HTTP %d for %s", resp.StatusCode, name)
	}
	var lr lookupResponse
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
		return false, fmt.Errorf("safebrowsing: decode response: %w", err)
	}
	return lr.Malicious, nil
}
