package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"dropzero/internal/feed"
)

// sseSubscriber is one passive /events receiver. feed.Subscriber reports
// batches, not names, so the harness reads the frames itself and decodes the
// op lines with feed.ParseOps to timestamp each contested name's
// re-registration op.
type sseSubscriber struct {
	body   io.ReadCloser
	cursor atomic.Uint64 // last batch boundary parsed
	resets atomic.Uint64 // reset/resume frames: the stream lost its place
	done   chan struct{}
	err    error // why the read loop ended; read after done
}

// subscribeSSE opens the stream and starts its read loop. onOp runs on the
// reader goroutine for every parsed op, with the instant its frame finished
// parsing.
func subscribeSSE(ctx context.Context, hc *http.Client, base string, onOp func(op feed.Op, at time.Time)) (*sseSubscriber, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/events", nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("subscribe: %s", resp.Status)
	}
	s := &sseSubscriber{body: resp.Body, done: make(chan struct{})}
	br := bufio.NewReader(resp.Body)
	// The hello frame carries the hub cursor the stream starts from; read it
	// here so a caller that returns from subscribeSSE is registered.
	event, data, err := readSSEFrame(br)
	if err != nil || event != "hello" {
		resp.Body.Close()
		return nil, fmt.Errorf("subscribe: want hello frame, got %q: %v", event, err)
	}
	cur, err := strconv.ParseUint(strings.TrimSpace(data), 10, 64)
	if err != nil {
		resp.Body.Close()
		return nil, fmt.Errorf("subscribe: bad hello cursor %q", data)
	}
	s.cursor.Store(cur)
	go func() {
		defer close(s.done)
		s.err = s.read(br, onOp)
	}()
	return s, nil
}

func (s *sseSubscriber) read(br *bufio.Reader, onOp func(feed.Op, time.Time)) error {
	for {
		event, data, err := readSSEFrame(br)
		if err != nil {
			return err
		}
		switch event {
		case "delta":
			// "<from> <to> <sentUnixNano> <nops>", then one line per op.
			header, rest, _ := strings.Cut(data, "\n")
			f := strings.Fields(header)
			if len(f) != 4 {
				return fmt.Errorf("bad delta header %q", header)
			}
			to, err := strconv.ParseUint(f[1], 10, 64)
			if err != nil {
				return fmt.Errorf("bad delta header %q", header)
			}
			ops, err := feed.ParseOps([]byte(rest))
			if err != nil {
				return err
			}
			at := time.Now()
			for _, op := range ops {
				onOp(op, at)
			}
			s.cursor.Store(to)
		case "reset", "resume":
			s.resets.Add(1)
		}
	}
}

// close ends the stream and waits for the read loop.
func (s *sseSubscriber) close() {
	s.body.Close()
	<-s.done
}

// readSSEFrame reads one frame: its event name and data lines joined by \n.
func readSSEFrame(br *bufio.Reader) (event, data string, err error) {
	var buf strings.Builder
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return "", "", err
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case line == "":
			if event != "" || buf.Len() > 0 {
				return event, buf.String(), nil
			}
		case strings.HasPrefix(line, "event: "):
			event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			if buf.Len() > 0 {
				buf.WriteByte('\n')
			}
			buf.WriteString(line[len("data: "):])
		}
	}
}
