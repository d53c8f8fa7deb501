package epp

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"dropzero/internal/model"
	"dropzero/internal/registry"
	"dropzero/internal/simtime"
)

func TestPollQueueFIFOAndAck(t *testing.T) {
	clock := simtime.NewSimClock(time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC))
	q := NewPollQueue(clock, 0)
	q.Enqueue(1000, "first")
	clock.Advance(time.Second)
	q.Enqueue(1000, "second")

	msg, count, ok := q.Peek(1000)
	if !ok || msg.Text != "first" || count != 2 {
		t.Fatalf("peek: %+v %d %v", msg, count, ok)
	}
	// Ack out of order is rejected.
	if err := q.Ack(1000, msg.ID+1); err == nil {
		t.Fatal("out-of-order ack accepted")
	}
	if err := q.Ack(1000, msg.ID); err != nil {
		t.Fatal(err)
	}
	msg, count, ok = q.Peek(1000)
	if !ok || msg.Text != "second" || count != 1 {
		t.Fatalf("after ack: %+v %d %v", msg, count, ok)
	}
	if err := q.Ack(1000, msg.ID); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := q.Peek(1000); ok {
		t.Fatal("queue not empty")
	}
	if err := q.Ack(1000, 1); err == nil {
		t.Fatal("ack on empty queue accepted")
	}
}

func TestPollQueueCapDropsOldest(t *testing.T) {
	clock := simtime.NewSimClock(time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC))
	q := NewPollQueue(clock, 3)
	for i := 0; i < 5; i++ {
		q.Enqueue(7, string(rune('a'+i)))
	}
	if q.Len(7) != 3 {
		t.Fatalf("len = %d", q.Len(7))
	}
	msg, _, _ := q.Peek(7)
	if msg.Text != "c" {
		t.Fatalf("head = %q, want oldest surviving", msg.Text)
	}
}

func TestPollQueueIsolatedPerRegistrar(t *testing.T) {
	clock := simtime.NewSimClock(time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC))
	q := NewPollQueue(clock, 0)
	q.Enqueue(1, "for one")
	if q.Len(2) != 0 {
		t.Fatal("message leaked across registrars")
	}
}

func TestPollOverEPP(t *testing.T) {
	clock := simtime.NewSimClock(time.Date(2018, 1, 1, 12, 0, 0, 0, time.UTC))
	store := registry.NewStore(clock)
	store.AddRegistrar(model.Registrar{IANAID: 7001, Name: "Sponsor"})
	poll := NewPollQueue(clock, 0)
	store.SetObserver(poll)
	srv := NewServer(store, clock, ServerConfig{
		Credentials: map[int]string{7001: "tok"},
		Poll:        poll,
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Login(7001, "tok"); err != nil {
		t.Fatal(err)
	}

	// Empty queue → no messages.
	pollReq := &Request{Cmd: CmdPoll, PollOp: PollOpRequest}
	if resp, err := c.roundTrip(pollReq); err != nil || resp.Code != CodeNoMessages {
		t.Fatalf("empty poll: %+v %v", resp, err)
	}

	// Drive a registration through deletion; the sponsor must be notified
	// of every transition and the purge.
	if _, err := c.Create("notify.com", 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete("notify.com"); err != nil { // → redemption
		t.Fatal(err)
	}
	day := simtime.DayOf(clock.Now()).AddDays(35)
	if err := store.MarkPendingDelete("notify.com", time.Time{}, day); err != nil {
		t.Fatal(err)
	}
	runner := registry.NewDropRunner(store, registry.DropConfig{StartHour: 19, BaseRatePerSec: 10})
	if _, err := runner.Run(day, rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}

	var texts []string
	for {
		resp, err := c.roundTrip(pollReq)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Code == CodeNoMessages {
			break
		}
		if resp.MsgCount < 1 {
			t.Fatalf("count = %d with message present", resp.MsgCount)
		}
		texts = append(texts, resp.Message.Text)
		if _, err := c.roundTrip(&Request{Cmd: CmdPoll, PollOp: PollOpAck, MsgID: resp.Message.ID}); err != nil {
			t.Fatal(err)
		}
	}
	joined := strings.Join(texts, " | ")
	for _, want := range []string{"active -> redemptionPeriod", "redemptionPeriod -> pendingDelete", "deleted (drop rank 0)"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("missing notification %q in %q", want, joined)
		}
	}
}

func TestPollWithoutQueueConfigured(t *testing.T) {
	_, _, addr := newTestServer(t, ServerConfig{})
	c := dialLogin(t, addr, 7001, "tok-a")
	_, err := c.roundTrip(&Request{Cmd: CmdPoll, PollOp: PollOpRequest})
	if !IsCode(err, CodeUnknownCommand) {
		t.Fatalf("poll without queue: %v", err)
	}
}

func TestPollBadOp(t *testing.T) {
	clock := simtime.NewSimClock(time.Date(2018, 1, 1, 12, 0, 0, 0, time.UTC))
	store := registry.NewStore(clock)
	store.AddRegistrar(model.Registrar{IANAID: 7001})
	srv := NewServer(store, clock, ServerConfig{
		Credentials: map[int]string{7001: "tok"},
		Poll:        NewPollQueue(clock, 0),
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Login(7001, "tok"); err != nil {
		t.Fatal(err)
	}
	_, err = c.roundTrip(&Request{Cmd: CmdPoll, PollOp: "bogus"})
	if !IsCode(err, CodeParamRange) {
		t.Fatalf("bad poll op: %v", err)
	}
}
