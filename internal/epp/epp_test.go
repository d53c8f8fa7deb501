package epp

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dropzero/internal/gctest"
	"dropzero/internal/model"
	"dropzero/internal/registry"
	"dropzero/internal/simtime"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := Request{Cmd: CmdCreate, Name: "example.com", Years: 2}
	if err := WriteFrame(&buf, &in); err != nil {
		t.Fatal(err)
	}
	var out Request
	if err := ReadFrame(&buf, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: %+v != %+v", out, in)
	}
}

func TestFrameTooLarge(t *testing.T) {
	var buf bytes.Buffer
	big := strings.Repeat("x", MaxFrame+1)
	if err := WriteFrame(&buf, big); err == nil {
		t.Fatal("oversized write frame accepted")
	}
	// Oversized header on read.
	buf.Reset()
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff})
	var v any
	if err := ReadFrame(&buf, &v); err == nil {
		t.Fatal("oversized read frame accepted")
	}
}

func TestFrameEOF(t *testing.T) {
	var v Request
	if err := ReadFrame(bytes.NewReader(nil), &v); !errors.Is(err, io.EOF) {
		t.Fatalf("empty read = %v, want EOF", err)
	}
}

func TestFrameTruncatedBody(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 10, 'x'})
	var v Request
	if err := ReadFrame(&buf, &v); err == nil {
		t.Fatal("truncated body accepted")
	}
}

func TestResponseErr(t *testing.T) {
	ok := &Response{Code: CodeOK}
	if ok.Err() != nil || !ok.OK() {
		t.Fatal("success response reported error")
	}
	bad := &Response{Code: CodeObjectExists, Msg: "exists"}
	err := bad.Err()
	if err == nil || !IsCode(err, CodeObjectExists) {
		t.Fatalf("Err = %v", err)
	}
	if IsCode(err, CodeOK) || IsCode(errors.New("x"), CodeObjectExists) {
		t.Fatal("IsCode misidentifies")
	}
}

// newTestServer stands up a registry + EPP server on an ephemeral port.
func newTestServer(t *testing.T, cfg ServerConfig) (*registry.Store, *simtime.SimClock, string) {
	t.Helper()
	clock := simtime.NewSimClock(time.Date(2018, 1, 1, 12, 0, 0, 0, time.UTC))
	store := registry.NewStore(clock)
	store.AddRegistrar(model.Registrar{IANAID: 7001, Name: "Catcher A"})
	store.AddRegistrar(model.Registrar{IANAID: 7002, Name: "Catcher B"})
	if cfg.Credentials == nil {
		cfg.Credentials = map[int]string{7001: "tok-a", 7002: "tok-b"}
	}
	srv := NewServer(store, clock, cfg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return store, clock, addr.String()
}

func dialLogin(t *testing.T, addr string, id int, tok string) *Client {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := c.Login(id, tok); err != nil {
		t.Fatal(err)
	}
	return c
}

// infoOf sends an info command for name; no program sends one, so the
// client has no method for it.
func infoOf(c *Client, name string) (*DomainInfo, error) {
	resp, err := c.roundTrip(&Request{Cmd: CmdInfo, Name: name})
	if err != nil {
		return nil, err
	}
	return resp.Domain, nil
}

func TestServerLoginRequired(t *testing.T) {
	_, _, addr := newTestServer(t, ServerConfig{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Check("example.com")
	if !IsCode(err, CodeNotLoggedIn) {
		t.Fatalf("check before login: %v", err)
	}
}

func TestServerBadCredentials(t *testing.T) {
	_, _, addr := newTestServer(t, ServerConfig{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Login(7001, "wrong"); !IsCode(err, CodeAuthError) {
		t.Fatalf("bad token: %v", err)
	}
	if err := c.Login(9999, "tok-a"); !IsCode(err, CodeAuthError) {
		t.Fatalf("unknown registrar: %v", err)
	}
}

func TestServerCreateInfoDelete(t *testing.T) {
	store, clock, addr := newTestServer(t, ServerConfig{})
	c := dialLogin(t, addr, 7001, "tok-a")

	avail, err := c.Check("fresh.com")
	if err != nil || !avail {
		t.Fatalf("check: %v %v", avail, err)
	}
	d, err := c.Create("fresh.com", 2)
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "fresh.com" || d.Registrar != 7001 || d.Status != "active" {
		t.Fatalf("created: %+v", d)
	}
	if !d.Created.Equal(simtime.Trunc(clock.Now())) {
		t.Fatalf("created time: %v", d.Created)
	}

	info, err := infoOf(c, "fresh.com")
	if err != nil || info.ID != d.ID {
		t.Fatalf("info: %+v %v", info, err)
	}

	if err := c.Delete("fresh.com"); err != nil {
		t.Fatal(err)
	}
	got, _ := store.Get("fresh.com")
	if got.Status != model.StatusRedemption {
		t.Fatalf("status after delete = %v", got.Status)
	}
	// Deleting again is prohibited by status.
	if err := c.Delete("fresh.com"); !IsCode(err, CodeStatusProhibits) {
		t.Fatalf("second delete: %v", err)
	}
}

func TestServerFCFSContention(t *testing.T) {
	_, _, addr := newTestServer(t, ServerConfig{})
	a := dialLogin(t, addr, 7001, "tok-a")
	b := dialLogin(t, addr, 7002, "tok-b")

	var wg sync.WaitGroup
	results := make([]error, 2)
	wg.Add(2)
	go func() { defer wg.Done(); _, results[0] = a.Create("contested.com", 1) }()
	go func() { defer wg.Done(); _, results[1] = b.Create("contested.com", 1) }()
	wg.Wait()

	wins, losses := 0, 0
	for _, err := range results {
		switch {
		case err == nil:
			wins++
		case IsCode(err, CodeObjectExists):
			losses++
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if wins != 1 || losses != 1 {
		t.Fatalf("wins=%d losses=%d, want exactly one of each", wins, losses)
	}
}

func TestServerAuthorization(t *testing.T) {
	_, _, addr := newTestServer(t, ServerConfig{})
	a := dialLogin(t, addr, 7001, "tok-a")
	b := dialLogin(t, addr, 7002, "tok-b")
	if _, err := a.Create("owned.com", 1); err != nil {
		t.Fatal(err)
	}
	if err := b.Delete("owned.com"); !IsCode(err, CodeAuthorization) {
		t.Fatalf("cross-registrar delete: %v", err)
	}
	if err := b.Update("owned.com"); !IsCode(err, CodeAuthorization) {
		t.Fatalf("cross-registrar update: %v", err)
	}
	if err := b.Renew("owned.com", 1); !IsCode(err, CodeAuthorization) {
		t.Fatalf("cross-registrar renew: %v", err)
	}
}

func TestServerRateLimit(t *testing.T) {
	_, _, addr := newTestServer(t, ServerConfig{CreateBurst: 3, CreateRate: 0.0001})
	c := dialLogin(t, addr, 7001, "tok-a")
	okCount, limited := 0, 0
	for i := 0; i < 6; i++ {
		_, err := c.Create("rl"+string(rune('a'+i))+".com", 1)
		switch {
		case err == nil:
			okCount++
		case IsCode(err, CodeRateLimited):
			limited++
		default:
			t.Fatalf("unexpected: %v", err)
		}
	}
	if okCount != 3 || limited != 3 {
		t.Fatalf("ok=%d limited=%d, want 3/3", okCount, limited)
	}
	// A different accreditation has its own budget: this is why drop-catch
	// services hold hundreds of them.
	b := dialLogin(t, addr, 7002, "tok-b")
	if _, err := b.Create("other-budget.com", 1); err != nil {
		t.Fatalf("independent budget consumed: %v", err)
	}
}

// TestServerInvalidCreateDoesNotBurnTokens: a create that fails validation
// (bad name or out-of-range years) must be rejected before the rate limiter
// is charged. Previously the bucket was debited first, so a competitor could
// be starved of its budget by its own malformed retries — or a buggy client
// could burn its entire Drop-second allowance on garbage.
func TestServerInvalidCreateDoesNotBurnTokens(t *testing.T) {
	_, _, addr := newTestServer(t, ServerConfig{CreateBurst: 2, CreateRate: 0.0001})
	c := dialLogin(t, addr, 7001, "tok-a")
	invalid := []struct {
		name  string
		years int
	}{
		{"no-tld", 1},
		{"UPPER.com", 1},
		{"-lead.com", 1},
		{"", 1},
		{"fine.com", 11},
		{"fine.com", -2},
	}
	for _, in := range invalid {
		if _, err := c.Create(in.name, in.years); !IsCode(err, CodeParamRange) {
			t.Fatalf("create %q/%d: got %v, want CodeParamRange", in.name, in.years, err)
		}
	}
	// The full burst of 2 must still be available after 6 invalid attempts.
	if _, err := c.Create("valid-a.com", 1); err != nil {
		t.Fatalf("first valid create after invalid spam: %v", err)
	}
	if _, err := c.Create("valid-b.com", 1); err != nil {
		t.Fatalf("second valid create after invalid spam: %v", err)
	}
	if _, err := c.Create("valid-c.com", 1); !IsCode(err, CodeRateLimited) {
		t.Fatalf("third valid create: got %v, want CodeRateLimited", err)
	}
}

func TestServerRateLimitRefill(t *testing.T) {
	_, clock, addr := newTestServer(t, ServerConfig{CreateBurst: 1, CreateRate: 1})
	c := dialLogin(t, addr, 7001, "tok-a")
	if _, err := c.Create("first.com", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Create("second.com", 1); !IsCode(err, CodeRateLimited) {
		t.Fatalf("expected rate limit, got %v", err)
	}
	clock.Advance(2 * time.Second)
	if _, err := c.Create("second.com", 1); err != nil {
		t.Fatalf("after refill: %v", err)
	}
}

func TestServerUnknownCommand(t *testing.T) {
	_, _, addr := newTestServer(t, ServerConfig{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.roundTrip(&Request{Cmd: "bogus"})
	if !IsCode(err, CodeUnknownCommand) {
		t.Fatalf("bogus command: %+v %v", resp, err)
	}
}

func TestServerLogout(t *testing.T) {
	_, _, addr := newTestServer(t, ServerConfig{})
	c := dialLogin(t, addr, 7001, "tok-a")
	if _, err := c.roundTrip(&Request{Cmd: CmdLogout}); err != nil {
		t.Fatalf("logout: %v", err)
	}
}

func TestServerTimeAdvances(t *testing.T) {
	_, clock, addr := newTestServer(t, ServerConfig{})
	c := dialLogin(t, addr, 7001, "tok-a")
	serverTime := func() time.Time {
		resp, err := c.roundTrip(&Request{Cmd: CmdCheck, Name: "timeprobe.com"})
		if err != nil {
			t.Fatal(err)
		}
		return resp.ServerTime
	}
	t1 := serverTime()
	clock.Advance(time.Minute)
	if got := serverTime().Sub(t1); got != time.Minute {
		t.Fatalf("server time advanced %v, want 1m", got)
	}
}

func TestTokenBucket(t *testing.T) {
	clock := simtime.NewSimClock(time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC))
	b := NewTokenBucket(clock, 2, 1)
	if !b.Allow() || !b.Allow() {
		t.Fatal("initial burst not allowed")
	}
	if b.Allow() {
		t.Fatal("over-burst allowed")
	}
	clock.Advance(1500 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("refilled token not allowed")
	}
	if b.Allow() {
		t.Fatal("partial token allowed")
	}
	// Capacity caps accumulation.
	clock.Advance(time.Hour)
	if !b.AllowN(2) {
		t.Fatal("capacity tokens not allowed")
	}
	if b.Allow() {
		t.Fatal("tokens beyond capacity allowed")
	}
}

func TestTransferOverEPP(t *testing.T) {
	_, _, addr := newTestServer(t, ServerConfig{})
	owner := dialLogin(t, addr, 7001, "tok-a")
	gainer := dialLogin(t, addr, 7002, "tok-b")

	if _, err := owner.Create("movable.com", 1); err != nil {
		t.Fatal(err)
	}
	// The sponsor sees the auth code via info; others do not.
	info, err := infoOf(owner, "movable.com")
	if err != nil || info.AuthInfo == "" {
		t.Fatalf("sponsor info: %+v %v", info, err)
	}
	foreign, err := infoOf(gainer, "movable.com")
	if err != nil || foreign.AuthInfo != "" {
		t.Fatalf("auth code leaked to non-sponsor: %+v %v", foreign, err)
	}

	if err := gainer.Transfer("movable.com", "bogus"); !IsCode(err, CodeBadAuthInfo) {
		t.Fatalf("bogus code: %v", err)
	}
	if err := gainer.Transfer("movable.com", info.AuthInfo); err != nil {
		t.Fatal(err)
	}
	moved, err := infoOf(gainer, "movable.com")
	if err != nil || moved.Registrar != 7002 {
		t.Fatalf("after transfer: %+v %v", moved, err)
	}
	if moved.AuthInfo == "" || moved.AuthInfo == info.AuthInfo {
		t.Fatalf("auth code not rotated: %q", moved.AuthInfo)
	}
}

// TestClosedServerIsCollectable: once Close has returned — listener, session
// goroutines and the store's observer hook all wound down — nothing may keep
// the store reachable. The session goes through the package-level frame and
// reader pools.
func TestClosedServerIsCollectable(t *testing.T) {
	gctest.Collected(t, func() *registry.Store {
		clock := simtime.NewSimClock(time.Date(2018, 1, 1, 12, 0, 0, 0, time.UTC))
		store := registry.NewStore(clock)
		store.AddRegistrar(model.Registrar{IANAID: 7001, Name: "Catcher A"})
		srv := NewServer(store, clock, ServerConfig{Credentials: map[int]string{7001: "tok-a"}})
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		c, err := Dial(addr.String())
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Login(7001, "tok-a"); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Create("collect.com", 1); err != nil {
			t.Fatal(err)
		}
		c.Close()
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		return store
	})
}

// countJournal counts the mutations a store commits.
type countJournal struct{ n atomic.Int64 }

func (j *countJournal) Append(registry.Mutation) func() error { j.n.Add(1); return nil }

// TestRenewPeriodOverEPP: the renew frame's period reaches Store.Renew as
// sent. Outside 1–10 years the answer is 2004 and nothing happens — no WAL
// record, no generation bump, the registration as it was; 0 means 1.
func TestRenewPeriodOverEPP(t *testing.T) {
	store, _, addr := newTestServer(t, ServerConfig{})
	c := dialLogin(t, addr, 7001, "tok-a")
	if _, err := c.Create("period.com", 1); err != nil {
		t.Fatal(err)
	}
	journal := &countJournal{}
	store.SetJournal(journal)
	for _, tc := range []struct{ years, code, added int }{
		{-5, CodeParamRange, 0}, {0, CodeOK, 1}, {10, CodeOK, 10}, {11, CodeParamRange, 0}, {100000, CodeParamRange, 0},
	} {
		before, _ := store.Get("period.com")
		gen, records := store.Generation(), journal.n.Load()
		err := c.Renew("period.com", tc.years)
		if tc.code == CodeOK && err != nil || tc.code != CodeOK && !IsCode(err, tc.code) {
			t.Fatalf("renew by %d years: %v, want code %d", tc.years, err, tc.code)
		}
		after, _ := store.Get("period.com")
		if tc.code != CodeOK {
			if *after != *before || store.Generation() != gen || journal.n.Load() != records {
				t.Fatalf("refused renew by %d years changed the store: %+v -> %+v, %d records", tc.years, before, after, journal.n.Load()-records)
			}
		} else if want := before.Expiry.AddDate(tc.added, 0, 0); !after.Expiry.Equal(want) || journal.n.Load() != records+1 {
			t.Fatalf("renew by %d years: expiry %v, want %v; %d records", tc.years, after.Expiry, want, journal.n.Load()-records)
		}
	}
}
