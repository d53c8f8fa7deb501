package whois

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dropzero/internal/gctest"
	"dropzero/internal/model"
	"dropzero/internal/registry"
	"dropzero/internal/simtime"
)

func sampleDomain() *model.Domain {
	return &model.Domain{
		ID:          1234,
		Name:        "example.com",
		TLD:         model.COM,
		RegistrarID: 1000,
		Created:     time.Date(2014, 3, 1, 4, 5, 6, 0, time.UTC),
		Updated:     time.Date(2017, 11, 27, 6, 30, 12, 0, time.UTC),
		Expiry:      time.Date(2018, 3, 1, 4, 5, 6, 0, time.UTC),
		Status:      model.StatusPendingDelete,
	}
}

func TestFormatParseRoundTrip(t *testing.T) {
	d := sampleDomain()
	body := Format(d)
	rec, err := Parse(body)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rec.Domain()
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != d.ID || got.Name != d.Name || got.RegistrarID != d.RegistrarID {
		t.Fatalf("round trip identity: %+v", got)
	}
	if !got.Created.Equal(d.Created) || !got.Updated.Equal(d.Updated) || !got.Expiry.Equal(d.Expiry) {
		t.Fatalf("round trip timestamps: %+v", got)
	}
	if got.Status != d.Status || got.TLD != model.COM {
		t.Fatalf("round trip status/tld: %+v", got)
	}
}

func TestParseNoMatch(t *testing.T) {
	if _, err := Parse("No match for domain \"MISSING.COM\".\r\n"); !errors.Is(err, ErrNoMatch) {
		t.Fatalf("Parse(no match) = %v", err)
	}
}

func TestParseEmpty(t *testing.T) {
	if _, err := Parse("\r\n\r\n"); err == nil {
		t.Fatal("Parse(empty) succeeded")
	}
}

func TestParseIgnoresTrailer(t *testing.T) {
	body := Format(sampleDomain())
	if !strings.Contains(body, ">>>") {
		t.Fatal("Format should include trailer")
	}
	rec, err := Parse(body)
	if err != nil {
		t.Fatal(err)
	}
	for k := range rec.Fields {
		if strings.HasPrefix(k, ">>>") {
			t.Fatal("trailer leaked into fields")
		}
	}
}

func TestRecordDomainMissingField(t *testing.T) {
	for _, k := range []string{FieldDomainName, FieldDomainID, FieldRegistrarID, FieldCreated, FieldUpdated, FieldExpiry, FieldStatus} {
		rec, _ := Parse(Format(sampleDomain()))
		delete(rec.Fields, k)
		if _, err := rec.Domain(); err == nil {
			t.Errorf("record without %s accepted", k)
		}
	}
}

func TestRecordDomainMalformed(t *testing.T) {
	for k, v := range map[string]string{FieldUpdated: "yesterday", FieldDomainID: "abc", FieldRegistrarID: "abc", FieldStatus: "lost"} {
		rec, _ := Parse(Format(sampleDomain()))
		rec.Fields[k] = v
		if _, err := rec.Domain(); err == nil {
			t.Errorf("%s %q accepted", k, v)
		}
	}
}

func newWhoisServer(t *testing.T) (*registry.Store, string) {
	t.Helper()
	clock := simtime.NewSimClock(time.Date(2018, 1, 1, 12, 0, 0, 0, time.UTC))
	store := registry.NewStore(clock)
	store.AddRegistrar(model.Registrar{IANAID: 1000, Name: "Test"})
	srv := NewServer(store)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return store, addr.String()
}

func TestServerLookup(t *testing.T) {
	store, addr := newWhoisServer(t)
	if _, err := store.Create("lookup.com", 1000, 3); err != nil {
		t.Fatal(err)
	}
	c := &Client{Addr: addr}
	d, err := c.Lookup("lookup.com")
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "lookup.com" || d.RegistrarID != 1000 {
		t.Fatalf("lookup: %+v", d)
	}
}

func TestServerLookupCaseInsensitive(t *testing.T) {
	store, addr := newWhoisServer(t)
	store.Create("mixed.com", 1000, 1)
	c := &Client{Addr: addr}
	if _, err := c.Lookup("MIXED.com"); err != nil {
		t.Fatalf("case-insensitive lookup: %v", err)
	}
}

func TestServerNoMatch(t *testing.T) {
	_, addr := newWhoisServer(t)
	c := &Client{Addr: addr}
	if _, err := c.Lookup("missing.com"); !errors.Is(err, ErrNoMatch) {
		t.Fatalf("missing lookup = %v, want ErrNoMatch", err)
	}
}

func TestServerManySequentialLookups(t *testing.T) {
	store, addr := newWhoisServer(t)
	store.Create("many.com", 1000, 1)
	c := &Client{Addr: addr}
	for i := 0; i < 50; i++ {
		if _, err := c.Lookup("many.com"); err != nil {
			t.Fatalf("lookup %d: %v", i, err)
		}
	}
}

func TestClientDialError(t *testing.T) {
	c := &Client{Addr: "127.0.0.1:1"}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if _, err := c.LookupContext(ctx, "x.com"); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

func TestClientContextDeadline(t *testing.T) {
	// A listener that accepts but never answers: the context deadline must
	// fail the lookup instead of stalling for the full client timeout.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
		}
	}()
	c := &Client{Addr: ln.Addr().String()}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := c.LookupContext(ctx, "hang.com"); err == nil {
		t.Fatal("lookup against mute server succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("context deadline not honoured: took %v", elapsed)
	}
}

func TestClientPooledLookups(t *testing.T) {
	store, addr := newWhoisServer(t)
	store.Create("pooled.com", 1000, 1)
	c := &Client{Addr: addr, PoolSize: 4}
	defer c.Close()
	for i := 0; i < 30; i++ {
		if _, err := c.Lookup("pooled.com"); err != nil {
			t.Fatalf("pooled lookup %d: %v", i, err)
		}
	}
}

func TestClientPoolSurvivesStaleConnections(t *testing.T) {
	store, addr := newWhoisServer(t)
	store.Create("stale.com", 1000, 1)
	c := &Client{Addr: addr, PoolSize: 2}
	defer c.Close()
	if _, err := c.Lookup("stale.com"); err != nil {
		t.Fatal(err)
	}
	// Sabotage whatever the background refill dialed: close the pooled
	// conns from the client side, so the next lookup hits a dead socket and
	// must retry on a fresh dial.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		c.mu.Lock()
		n := len(c.idle)
		c.mu.Unlock()
		if n > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	c.mu.Lock()
	for _, conn := range c.idle {
		conn.Close()
	}
	c.mu.Unlock()
	if _, err := c.Lookup("stale.com"); err != nil {
		t.Fatalf("lookup after stale pooled conn: %v", err)
	}
}

func TestClientConcurrentLookups(t *testing.T) {
	store, addr := newWhoisServer(t)
	store.Create("conc.com", 1000, 1)
	c := &Client{Addr: addr, PoolSize: 8}
	defer c.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Lookup("conc.com"); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}

// formatReference is the original map-and-sort implementation of Format,
// kept verbatim as the byte-level oracle for the fixed-order rewrite.
func formatReference(d *model.Domain) string {
	fields := map[string]string{
		FieldDomainName:  strings.ToUpper(d.Name),
		FieldDomainID:    fmt.Sprintf("%d_DOMAIN", d.ID),
		FieldRegistrarID: strconv.Itoa(d.RegistrarID),
		FieldUpdated:     d.Updated.UTC().Format(timeLayout),
		FieldCreated:     d.Created.UTC().Format(timeLayout),
		FieldExpiry:      d.Expiry.UTC().Format(timeLayout),
		FieldStatus:      d.Status.String(),
	}
	keys := make([]string, 0, len(fields))
	for k := range fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "   %s: %s\r\n", k, fields[k])
	}
	b.WriteString("\r\n>>> Last update of whois database <<<\r\n")
	return b.String()
}

func TestFormatMatchesMapSortReference(t *testing.T) {
	domains := []*model.Domain{
		sampleDomain(),
		{ID: 1, Name: "a.net", TLD: model.NET, RegistrarID: 9,
			Created: time.Date(2000, 1, 2, 3, 4, 5, 0, time.UTC),
			Updated: time.Date(2001, 2, 3, 4, 5, 6, 0, time.UTC),
			Expiry:  time.Date(2002, 3, 4, 5, 6, 7, 0, time.UTC),
			Status:  model.StatusActive},
		{ID: 18446744073709551615, Name: "max-id.com", TLD: model.COM, RegistrarID: 1727,
			Created: time.Unix(0, 0).UTC(), Updated: time.Unix(0, 0).UTC(),
			Expiry: time.Unix(0, 0).UTC(), Status: model.StatusRedemption},
	}
	for _, d := range domains {
		if got, want := Format(d), formatReference(d); got != want {
			t.Fatalf("Format(%s) diverged from map-sort reference:\n got %q\nwant %q", d.Name, got, want)
		}
	}
}

// pipeEnv builds a store + server and returns a query function running the
// full protocol over an in-memory pipe via ServeConn.
func pipeEnv(t *testing.T) (*registry.Store, *Server, func(name string) string) {
	t.Helper()
	clock := simtime.NewSimClock(time.Date(2018, 1, 10, 9, 0, 0, 0, time.UTC))
	store := registry.NewStore(clock)
	store.AddRegistrar(model.Registrar{IANAID: 1000, Name: "R"})
	srv := NewServer(store)
	query := func(name string) string {
		client, server := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.ServeConn(server)
			server.Close()
		}()
		fmt.Fprintf(client, "%s\r\n", name)
		body, err := io.ReadAll(client)
		client.Close()
		<-done
		if err != nil {
			t.Fatalf("read reply for %s: %v", name, err)
		}
		return string(body)
	}
	return store, srv, query
}

// TestServeConnCachedEqualsFresh is the WHOIS differential invariant:
// cached replies are byte-identical to Format of the live record, across
// mutations, and negative replies never stick.
func TestServeConnCachedEqualsFresh(t *testing.T) {
	store, srv, query := pipeEnv(t)
	day := simtime.Day{Year: 2018, Month: time.January, Dom: 10}
	updated := day.AddDays(-35).At(6, 0, 0)
	if _, err := store.SeedAt("w1.com", 1000, updated.AddDate(-1, 0, 0), updated,
		updated.AddDate(0, 0, -30), model.StatusPendingDelete, day); err != nil {
		t.Fatal(err)
	}
	d, err := store.Get("w1.com")
	if err != nil {
		t.Fatal(err)
	}
	want := Format(d)
	if got := query("w1.com"); got != want { // cold
		t.Fatalf("cold reply:\n got %q\nwant %q", got, want)
	}
	if got := query("w1.com"); got != want { // warm (cached)
		t.Fatalf("warm reply:\n got %q\nwant %q", got, want)
	}
	if m := srv.Metrics(); m.Requests != 2 || m.Cache.Hits != 1 || m.Cache.Misses != 1 {
		t.Fatalf("metrics = %+v", m)
	}

	// Drop the name: the cached positive reply must not survive the purge.
	runner := registry.NewDropRunner(store, registry.DropConfig{StartHour: 19, BaseRatePerSec: 10})
	if _, err := runner.Run(day, rand.New(rand.NewSource(2))); err != nil {
		t.Fatal(err)
	}
	if got := query("w1.com"); !strings.HasPrefix(got, noMatchPrefix) {
		t.Fatalf("post-drop reply = %q, want no-match (stale cache?)", got)
	}

	// Re-register: the negative reply must not stick either, and the new
	// record's bytes must be fresh.
	if _, err := store.CreateAt("w1.com", 1000, 1, day.At(19, 0, 1)); err != nil {
		t.Fatal(err)
	}
	d2, err := store.Get("w1.com")
	if err != nil {
		t.Fatal(err)
	}
	got := query("w1.com")
	if got != Format(d2) {
		t.Fatalf("post-recreate reply:\n got %q\nwant %q", got, Format(d2))
	}
	if got == want {
		t.Fatal("re-registration served the pre-drop record")
	}
}

// TestServeConnConcurrentDuringDrop hammers lookups over pipes while a Drop
// purges; run with -race.
func TestServeConnConcurrentDuringDrop(t *testing.T) {
	store, srv, _ := pipeEnv(t)
	day := simtime.Day{Year: 2018, Month: time.January, Dom: 10}
	updated := day.AddDays(-35).At(6, 0, 0)
	names := make([]string, 120)
	for i := range names {
		names[i] = fmt.Sprintf("wc%03d.com", i)
		if _, err := store.SeedAt(names[i], 1000, updated.AddDate(-1, 0, 0), updated,
			updated.AddDate(0, 0, -30), model.StatusPendingDelete, day); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				name := names[(i*13+w)%len(names)]
				body := srv.response(name)
				if !strings.HasPrefix(body, noMatchPrefix) {
					if _, err := Parse(body); err != nil {
						t.Errorf("%s: bad reply: %v", name, err)
						return
					}
				}
			}
		}(w)
	}
	runner := registry.NewDropRunner(store, registry.DropConfig{StartHour: 19, BaseRatePerSec: 100})
	if _, err := runner.Run(day, rand.New(rand.NewSource(4))); err != nil {
		t.Error(err)
	}
	close(stop)
	wg.Wait()
}

// TestClosedServerIsCollectable: once Close has returned — accept loop and
// connection handlers gone — nothing may keep the store reachable.
func TestClosedServerIsCollectable(t *testing.T) {
	gctest.Collected(t, func() *registry.Store {
		store := registry.NewStore(simtime.NewSimClock(time.Date(2018, 1, 1, 12, 0, 0, 0, time.UTC)))
		store.AddRegistrar(model.Registrar{IANAID: 1000, Name: "Test"})
		if _, err := store.Create("collect.com", 1000, 1); err != nil {
			t.Fatal(err)
		}
		srv := NewServer(store)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		c := &Client{Addr: addr.String()}
		if _, err := c.Lookup("collect.com"); err != nil {
			t.Fatal(err)
		}
		c.Close()
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		return store
	})
}

// TestBoundClientMatchesTCP: a bound client and a TCP client of the same
// server give the same answer to a registered name, an upper-case query and
// an unregistered name, and the server counts them the same. A cancelled
// context reaches the server on neither.
func TestBoundClientMatchesTCP(t *testing.T) {
	store := registry.NewStore(simtime.NewSimClock(time.Date(2018, 1, 1, 12, 0, 0, 0, time.UTC)))
	store.AddRegistrar(model.Registrar{IANAID: 1000, Name: "Test"})
	if _, err := store.Create("present.com", 1000, 2); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tcp, bound := &Client{Addr: addr.String()}, NewBoundClient(srv)
	type outcome struct {
		d        *model.Domain
		err      error
		requests uint64
	}
	lookup := func(ctx context.Context, c *Client, name string) (o outcome) {
		before := srv.Metrics().Requests
		o.d, o.err = c.LookupContext(ctx, name)
		o.requests = srv.Metrics().Requests - before
		return o
	}
	ctx := context.Background()
	for _, name := range []string{"present.com", "PRESENT.COM", "missing.com"} {
		tc, bc := lookup(ctx, tcp, name), lookup(ctx, bound, name)
		if !reflect.DeepEqual(tc.d, bc.d) || (tc.err == nil) != (bc.err == nil) || tc.requests != 1 || bc.requests != 1 {
			t.Errorf("%q: TCP (%+v, %v, %d requests), bound (%+v, %v, %d requests)", name, tc.d, tc.err, tc.requests, bc.d, bc.err, bc.requests)
		}
		if missing := name == "missing.com"; errors.Is(tc.err, ErrNoMatch) != missing || errors.Is(bc.err, ErrNoMatch) != missing {
			t.Errorf("%q: TCP %v, bound %v; ErrNoMatch wanted: %v", name, tc.err, bc.err, missing)
		}
	}
	if bc := lookup(ctx, bound, "present.com"); bc.err != nil || bc.d.Name != "present.com" || bc.d.RegistrarID != 1000 {
		t.Errorf("bound lookup = %+v, %v", bc.d, bc.err)
	}

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	for transport, c := range map[string]*Client{"TCP": tcp, "bound": bound} {
		if o := lookup(cancelled, c, "present.com"); !errors.Is(o.err, context.Canceled) || o.requests != 0 {
			t.Errorf("%s lookup under a cancelled context = %v, %d requests", transport, o.err, o.requests)
		}
	}
}
