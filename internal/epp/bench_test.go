package epp

import (
	"fmt"
	"testing"
	"time"

	"dropzero/internal/model"
	"dropzero/internal/registry"
	"dropzero/internal/simtime"
)

// benchServer stands up a store with one accreditation and a seeded domain,
// returning the server plus a connected, logged-in client over the given
// transport ("tcp" or "inproc").
func benchServer(b *testing.B, transport string) (*Server, *Client) {
	b.Helper()
	clock := simtime.NewSimClock(simtime.Day{Year: 2018, Month: time.March, Dom: 8}.At(12, 0, 0))
	store := registry.NewStore(clock)
	store.AddRegistrar(model.Registrar{IANAID: 1000, Name: "Bench Registrar"})
	if _, err := store.Create("taken.com", 1000, 1); err != nil {
		b.Fatal(err)
	}
	srv := NewServer(store, clock, ServerConfig{Credentials: map[int]string{1000: "tok"}})
	var client *Client
	switch transport {
	case "tcp":
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		client, err = Dial(addr.String())
		if err != nil {
			b.Fatal(err)
		}
	case "inproc":
		client = srv.ConnectInProc()
	default:
		b.Fatalf("unknown transport %q", transport)
	}
	b.Cleanup(func() {
		client.Close()
		srv.Close()
	})
	if err := client.Login(1000, "tok"); err != nil {
		b.Fatal(err)
	}
	return srv, client
}

// BenchmarkEPPFramePath measures the per-request cost of the EPP serving
// path — framing, dispatch, store access, response encoding — via the
// command mix a drop-catch client sends during the Drop: an availability
// check on a taken name plus a losing create (objectExists), the exact
// round-trip hammered thousands of times per second at 19:00 UTC. The
// allocs/op number is the PR 6 acceptance metric (≥50 % below the pre-PR
// baseline; see BENCH.json).
func BenchmarkEPPFramePath(b *testing.B) {
	for _, transport := range []string{"inproc", "tcp"} {
		b.Run("checkcreate/"+transport, func(b *testing.B) {
			_, client := benchServer(b, transport)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := client.Check("taken.com"); err != nil {
					b.Fatal(err)
				}
				if _, err := client.Create("taken.com", 1); !IsCode(err, CodeObjectExists) {
					b.Fatalf("create: %v", err)
				}
			}
		})
		b.Run("info/"+transport, func(b *testing.B) {
			_, client := benchServer(b, transport)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := infoOf(client, "taken.com"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkResponseEncode isolates the response-encoding half of the frame
// path: a create success frame (the largest common response) rendered to
// wire bytes.
func BenchmarkResponseEncode(b *testing.B) {
	now := simtime.Trunc(time.Date(2018, time.March, 8, 19, 0, 0, 0, time.UTC))
	resp := &Response{
		Code: CodeOK,
		Msg:  "command completed successfully",
		Domain: &DomainInfo{
			ID: 42, Name: "contested00.com", Registrar: 1000,
			Created: now, Updated: now, Expiry: now.AddDate(1, 0, 0),
			Status: "active",
		},
		ServerTime: now,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteFrame(discardWriter{}, resp); err != nil {
			b.Fatal(err)
		}
	}
}

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }

var _ = fmt.Sprintf // keep fmt imported across baseline/optimized variants
