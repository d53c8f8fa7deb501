package dns

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"dropzero/internal/model"
	"dropzero/internal/registry"
	"dropzero/internal/simtime"
)

func TestPackUnpackQuery(t *testing.T) {
	m := &Message{
		Header:    Header{ID: 0x1234, RD: true},
		Questions: []Question{{Name: "example.com", Type: TypeA, Class: ClassIN}},
	}
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.Header.ID != 0x1234 || !got.Header.RD || got.Header.QR {
		t.Fatalf("header: %+v", got.Header)
	}
	if len(got.Questions) != 1 || got.Questions[0].Name != "example.com" || got.Questions[0].Type != TypeA {
		t.Fatalf("questions: %+v", got.Questions)
	}
}

func TestPackUnpackAllRecordTypes(t *testing.T) {
	m := &Message{
		Header: Header{ID: 7, QR: true, AA: true},
		Answers: []RR{
			{Name: "a.com", Type: TypeA, Class: ClassIN, TTL: 300, A: [4]byte{203, 0, 113, 9}},
			{Name: "a.com", Type: TypeNS, Class: ClassIN, TTL: 300, Target: "ns1.registrar7.example"},
			{Name: "a.com", Type: TypeTXT, Class: ClassIN, TTL: 300, TXT: "registrar=7"},
		},
		Authority: []RR{{
			Name: "com", Type: TypeSOA, Class: ClassIN, TTL: 300,
			SOA: SOAData{MName: "a.gtld.example", RName: "host.example", Serial: 1, Refresh: 2, Retry: 3, Expire: 4, Minimum: 5},
		}},
	}
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unpack(wire)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Answers) != 3 || len(got.Authority) != 1 {
		t.Fatalf("sections: %d/%d", len(got.Answers), len(got.Authority))
	}
	if got.Answers[0].A != [4]byte{203, 0, 113, 9} {
		t.Fatalf("A: %v", got.Answers[0].A)
	}
	if got.Answers[1].Target != "ns1.registrar7.example" {
		t.Fatalf("NS: %q", got.Answers[1].Target)
	}
	if got.Answers[2].TXT != "registrar=7" {
		t.Fatalf("TXT: %q", got.Answers[2].TXT)
	}
	soa := got.Authority[0].SOA
	if soa.MName != "a.gtld.example" || soa.Serial != 1 || soa.Minimum != 5 {
		t.Fatalf("SOA: %+v", soa)
	}
}

func TestParseNameCompression(t *testing.T) {
	// Hand-built message: name at offset 12, then a pointer to it.
	var buf []byte
	buf = append(buf, make([]byte, 12)...)
	buf = append(buf, 3, 'f', 'o', 'o', 3, 'c', 'o', 'm', 0)
	ptrOff := len(buf)
	buf = append(buf, 0xC0, 12)
	name, end, err := parseName(buf, ptrOff)
	if err != nil {
		t.Fatal(err)
	}
	if name != "foo.com" || end != ptrOff+2 {
		t.Fatalf("name=%q end=%d", name, end)
	}
}

func TestParseNamePointerLoop(t *testing.T) {
	var buf []byte
	buf = append(buf, make([]byte, 12)...)
	buf = append(buf, 0xC0, 12) // points at itself
	if _, _, err := parseName(buf, 12); !errors.Is(err, ErrPointerLoop) {
		t.Fatalf("loop error = %v", err)
	}
}

func TestUnpackTruncated(t *testing.T) {
	m := &Message{Header: Header{ID: 9}, Questions: []Question{{Name: "x.com", Type: TypeA, Class: ClassIN}}}
	wire, _ := m.Pack()
	for cut := 1; cut < len(wire); cut++ {
		if _, err := Unpack(wire[:cut]); err == nil {
			// Cutting mid-header or mid-question must error; a cut exactly
			// after the header with QDCount=1 must also error.
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestUnpackFuzzNoPanic(t *testing.T) {
	f := func(data []byte) bool {
		_, _ = Unpack(data) // must never panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestAppendNameValidation(t *testing.T) {
	if _, err := appendName(nil, "a..b"); !errors.Is(err, ErrBadName) {
		t.Fatalf("empty label: %v", err)
	}
	long := make([]byte, 64)
	for i := range long {
		long[i] = 'a'
	}
	if _, err := appendName(nil, string(long)+".com"); !errors.Is(err, ErrBadName) {
		t.Fatalf("long label: %v", err)
	}
}

// newZone stands up a registry + DNS server with one domain per lifecycle
// state.
func newZone(t *testing.T) (*registry.Store, *Client) {
	t.Helper()
	day := simtime.Day{Year: 2018, Month: time.January, Dom: 10}
	clock := simtime.NewSimClock(day.At(9, 0, 0))
	store := registry.NewStore(clock)
	store.AddRegistrar(model.Registrar{IANAID: 1000})
	srv := NewServer(store)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return store, &Client{Addr: addr.String(), Timeout: 2 * time.Second,
		rng: rand.New(rand.NewSource(1))}
}

func TestServerResolvesActiveDomain(t *testing.T) {
	store, c := newZone(t)
	d, err := store.Create("active.com", 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	addr, ok, err := c.Lookup("active.com")
	if err != nil || !ok {
		t.Fatalf("lookup: %v %v", ok, err)
	}
	if addr != parkedAddr(d) {
		t.Fatalf("addr = %v", addr)
	}
	resp, err := c.Exchange("active.com", TypeNS)
	if err != nil || len(resp.Answers) != 2 {
		t.Fatalf("NS: %+v %v", resp, err)
	}
	if !resp.Header.AA {
		t.Fatal("answer not authoritative")
	}
}

func TestServerNXDomainForUnregistered(t *testing.T) {
	_, c := newZone(t)
	_, ok, err := c.Lookup("missing.com")
	if err != nil || ok {
		t.Fatalf("missing: %v %v", ok, err)
	}
}

func TestServerPullsRedemptionFromZone(t *testing.T) {
	store, c := newZone(t)
	store.Create("expired.com", 1000, 1)
	if ok, _ := c.InZone("expired.com"); !ok {
		t.Fatal("active domain not in zone")
	}
	// Registrar deletes: the domain leaves the zone at redemption, ~35 days
	// before the Drop.
	if err := store.MarkRedemption("expired.com", time.Now()); err != nil {
		t.Fatal(err)
	}
	if ok, _ := c.InZone("expired.com"); ok {
		t.Fatal("redemption domain still in zone")
	}
}

func TestServerNXDomainHasSOA(t *testing.T) {
	_, c := newZone(t)
	resp, err := c.Exchange("missing.com", TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.Rcode != RcodeNXDomain {
		t.Fatalf("rcode = %d", resp.Header.Rcode)
	}
	if len(resp.Authority) != 1 || resp.Authority[0].Type != TypeSOA {
		t.Fatalf("authority: %+v", resp.Authority)
	}
}

func TestServerRefusesForeignZone(t *testing.T) {
	_, c := newZone(t)
	resp, err := c.Exchange("example.org", TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.Rcode != RcodeRefused {
		t.Fatalf("rcode = %d, want REFUSED", resp.Header.Rcode)
	}
}

func TestServerIgnoresGarbage(t *testing.T) {
	store, _ := newZone(t)
	srv := NewServer(store)
	if resp := srv.handle([]byte{1, 2, 3}); resp != nil {
		t.Fatal("garbage produced a response")
	}
	// A response message must also be dropped (no reflection loops).
	m := &Message{Header: Header{ID: 1, QR: true}}
	wire, _ := m.Pack()
	if resp := srv.handle(wire); resp != nil {
		t.Fatal("response message produced a response")
	}
}

// Property: Pack∘Unpack is the identity on structurally valid messages.
func TestPackUnpackProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	label := func() string {
		const chars = "abcdefghijklmnopqrstuvwxyz0123456789"
		n := 1 + rng.Intn(10)
		b := make([]byte, n)
		for i := range b {
			b[i] = chars[rng.Intn(len(chars))]
		}
		return string(b)
	}
	f := func() bool {
		m := &Message{
			Header: Header{ID: uint16(rng.Intn(1 << 16)), QR: rng.Intn(2) == 1, Rcode: uint8(rng.Intn(6))},
			Questions: []Question{{
				Name: label() + "." + label(), Type: TypeA, Class: ClassIN,
			}},
		}
		for i := 0; i < rng.Intn(3); i++ {
			m.Answers = append(m.Answers, RR{
				Name: label() + ".com", Type: TypeA, Class: ClassIN,
				TTL: uint32(rng.Intn(86400)), A: [4]byte{byte(rng.Intn(256)), 0, 113, byte(rng.Intn(256))},
			})
		}
		wire, err := m.Pack()
		if err != nil {
			return false
		}
		got, err := Unpack(wire)
		if err != nil {
			return false
		}
		// Pack computes the section counts itself, so compare the header
		// fields the caller set rather than the whole struct.
		if got.Header.ID != m.Header.ID || got.Header.QR != m.Header.QR || got.Header.Rcode != m.Header.Rcode {
			return false
		}
		if len(got.Questions) != 1 || got.Questions[0] != m.Questions[0] ||
			len(got.Answers) != len(m.Answers) {
			return false
		}
		for i := range m.Answers {
			if got.Answers[i].A != m.Answers[i].A || got.Answers[i].TTL != m.Answers[i].TTL {
				return false
			}
		}
		return true
	}
	if err := quick.Check(func(byte) bool { return f() }, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
