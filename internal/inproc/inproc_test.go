package inproc

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

func TestClientDispatchesToHandler(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/hello", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
		io.WriteString(w, "hi "+r.URL.Query().Get("name"))
	})
	c := Client(mux)
	resp, err := c.Get("http://anything.internal/hello?name=go")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTeapot {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if string(body) != "hi go" {
		t.Fatalf("body = %q", body)
	}
}

// TestCancelledRequestReachesNoHandler: a request whose context is done
// fails with the context's error, as on net/http's Transport, and the
// handler never runs.
func TestCancelledRequestReachesNoHandler(t *testing.T) {
	ran := false
	c := Client(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { ran = true }))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://x.internal/", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := c.Do(req); !errors.Is(err, context.Canceled) || ran {
		if resp != nil {
			resp.Body.Close()
		}
		t.Fatalf("cancelled request: %v (handler ran: %v)", err, ran)
	}
}

func TestClientNotFoundRoute(t *testing.T) {
	c := Client(http.NewServeMux())
	resp, err := c.Get("http://x.internal/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

// roundTrip serves one GET through handler and returns the response with its
// body read.
func roundTrip(t *testing.T, handler http.HandlerFunc) (*http.Response, string) {
	t.Helper()
	resp, err := Client(handler).Get("http://x.internal/")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	return resp, string(body)
}

func TestStatusDefaultsToOK(t *testing.T) {
	resp, body := roundTrip(t, func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "implicit")
		w.WriteHeader(http.StatusTeapot) // too late, as on a real connection
	})
	if resp.StatusCode != http.StatusOK || resp.Status != "200 OK" || body != "implicit" {
		t.Fatalf("status %q, body %q", resp.Status, body)
	}
	if resp, body = roundTrip(t, func(http.ResponseWriter, *http.Request) {}); resp.StatusCode != http.StatusOK || body != "" {
		t.Fatalf("silent handler: status %d, body %q", resp.StatusCode, body)
	}
}

func TestHeadersAndContentLength(t *testing.T) {
	resp, body := roundTrip(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header()["Etag"] = []string{`"7"`}
		w.Header().Set("Content-Length", "5")
		w.WriteHeader(http.StatusAccepted)
		io.WriteString(w, "he")
		io.WriteString(w, "llo")
	})
	if resp.StatusCode != http.StatusAccepted || body != "hello" {
		t.Fatalf("status %d, body %q", resp.StatusCode, body)
	}
	if resp.Header.Get("ETag") != `"7"` || resp.ContentLength != 5 {
		t.Fatalf("ETag %q, ContentLength %d", resp.Header.Get("ETag"), resp.ContentLength)
	}
	if resp, _ = roundTrip(t, func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, "x") }); resp.ContentLength != -1 {
		t.Fatalf("ContentLength without the header = %d, want -1", resp.ContentLength)
	}
	// An error answer without the header — the RDAP 404 — parses nothing,
	// and its Status comes from the table; other codes are still spelled out.
	notFound := func(w http.ResponseWriter, r *http.Request) { http.Error(w, "no", http.StatusNotFound) }
	if resp, _ = roundTrip(t, notFound); resp.ContentLength != -1 || resp.Status != "404 Not Found" {
		t.Fatalf("404 without the header: ContentLength %d, Status %q", resp.ContentLength, resp.Status)
	}
	req := httptest.NewRequest(http.MethodGet, "/", nil)
	bare := Transport{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusNotFound) })}
	if n := testing.AllocsPerRun(100, func() { bare.RoundTrip(req) }); n > 3 {
		t.Errorf("a bare 404 round trip allocates %.0f times, want the header map, the writer and the response", n)
	}
	resp, _ = roundTrip(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", "five")
		w.WriteHeader(http.StatusTeapot)
	})
	if resp.ContentLength != -1 || resp.Status != "418 I'm a teapot" {
		t.Fatalf("unparsable header off the table: ContentLength %d, Status %q", resp.ContentLength, resp.Status)
	}
}

func TestNotModifiedCarriesNoBody(t *testing.T) {
	var werr error
	resp, body := roundTrip(t, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotModified)
		_, werr = io.WriteString(w, "must not arrive")
	})
	if resp.StatusCode != http.StatusNotModified || body != "" {
		t.Fatalf("status %d, body %q", resp.StatusCode, body)
	}
	if werr != http.ErrBodyNotAllowed {
		t.Fatalf("Write on a 304 = %v, want http.ErrBodyNotAllowed", werr)
	}
}

func TestFlusherAccepted(t *testing.T) {
	resp, body := roundTrip(t, func(w http.ResponseWriter, r *http.Request) {
		f, ok := w.(http.Flusher)
		if !ok {
			t.Error("ResponseWriter is not an http.Flusher")
			return
		}
		io.WriteString(w, "a")
		f.Flush()
		io.WriteString(w, "b")
	})
	if resp.StatusCode != http.StatusOK || body != "ab" {
		t.Fatalf("status %d, body %q", resp.StatusCode, body)
	}
}
