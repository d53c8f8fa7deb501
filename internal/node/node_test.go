package node

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"dropzero/internal/epp"
	"dropzero/internal/feed"
	"dropzero/internal/gctest"
	"dropzero/internal/journal"
	"dropzero/internal/model"
	"dropzero/internal/registry"
	"dropzero/internal/simtime"
)

var day = simtime.Day{Year: 2018, Month: time.March, Dom: 8}

const sponsor, catcher = 7001, 7002

var creds = map[int]string{sponsor: "tok-s", catcher: "tok-c"}

// seed is a primary's Boot: two registrars and 40 names, every other one
// pendingDelete and due on day.
func seed(s *registry.Store, _ *journal.Journal, _ journal.Recovery) error {
	s.AddRegistrar(model.Registrar{IANAID: sponsor, Name: "Node Test Sponsor"})
	s.AddRegistrar(model.Registrar{IANAID: catcher, Name: "Node Test Catcher"})
	for i := 0; i < 40; i++ {
		name := fmt.Sprintf("node-%02d.com", i)
		at := day.AddDays(-40).At(6, 0, i)
		if _, err := s.CreateAt(name, sponsor, 1, at); err != nil {
			return err
		}
		if i%2 == 0 {
			if err := s.MarkPendingDelete(name, at.Add(time.Hour), day); err != nil {
				return err
			}
		}
	}
	return nil
}

func TestConfigRefusals(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name, want string
		cfg        Config
	}{
		{"quorum over an async journal", "-durability sync",
			Config{Replication: "127.0.0.1:0", DataDir: dir, Mode: journal.ModeAsync, SyncFollowers: 1}},
		{"quorum without a replication listener", "-listen-replication",
			Config{DataDir: dir, Mode: journal.ModeSync, SyncFollowers: 1}},
		{"replica without a data directory", "-datadir",
			Config{ReplicateFrom: "127.0.0.1:1", Mode: journal.ModeSync}},
		{"replica under ModeOff", "-durability",
			Config{ReplicateFrom: "127.0.0.1:1", DataDir: dir, Mode: journal.ModeOff}},
		{"replica with zones", "-zones",
			Config{ReplicateFrom: "127.0.0.1:1", DataDir: dir, Mode: journal.ModeSync, Zones: "alt=org:random"}},
		{"replication without a journal", "-listen-replication requires a journal",
			Config{Replication: "127.0.0.1:0", DataDir: dir}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Clock = simtime.NewSimClock(day.At(18, 0, 0))
			n, err := Start(tc.cfg)
			if err == nil {
				n.Close()
				t.Fatal("started")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("refusal %q does not name %s", err, tc.want)
			}
		})
	}
	// Refused before anything was opened.
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
		t.Fatalf("refused configs touched the data directory: %v %v", ents, err)
	}
}

// TestPromotedReplicaServesAsPrimary: a replica that was read-only, without
// a feed and with an empty poll queue, serves after Promote what the old
// primary served — the same /deltas/full at the same sequence, EPP creates,
// and poll messages from its own Drop.
func TestPromotedReplicaServesAsPrimary(t *testing.T) {
	clock := simtime.NewSimClock(day.At(18, 0, 0))
	primary, err := Start(Config{Replication: "127.0.0.1:0", Scope: "127.0.0.1:0", DataDir: t.TempDir(),
		Mode: journal.ModeSync, Clock: clock, SyncFollowers: 1, Credentials: creds, Boot: seed})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	replica, err := Start(Config{ReplicateFrom: primary.Addr("replication"), Scope: "127.0.0.1:0", DataDir: t.TempDir(),
		Mode: journal.ModeSync, Clock: simtime.NewSimClock(day.At(18, 0, 0)), Credentials: creds})
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()

	// Commits through the whole stack (WAL, follower quorum, feed): a create
	// and one purge of the Drop.
	create(t, primary.EPP, "fresh.com")
	clock.Set(day.At(19, 0, 0))
	purgeOne(t, primary.Store)
	seq := primary.Journal().LastSeq()
	for deadline := time.Now().Add(10 * time.Second); replica.Follower.AppliedSeq() < seq; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck at seq %d, primary at %d", replica.Follower.AppliedSeq(), seq)
		}
	}
	if code, _ := fullList(t, replica); code != http.StatusNotFound {
		t.Fatalf("unpromoted replica serves /deltas/full: %d", code)
	}
	if code := poll(t, replica.EPP, sponsor); code != epp.CodeNoMessages {
		t.Fatalf("unpromoted replica poll: code %d, want an empty queue", code)
	}
	_, want := fullList(t, primary)
	if err := primary.Close(); err != nil {
		t.Fatal(err)
	}

	// Readers of the status document and of the feed's mount point keep
	// coming while Promote swaps the journal and mounts the hub.
	stop, readers := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(readers)
		for {
			select {
			case <-stop:
				return
			default:
			}
			replica.Status()
			if resp, err := http.Get("http://" + replica.Addr("pending-delete list") + "/deltas?since=0"); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
	}()
	err = replica.Promote()
	close(stop)
	<-readers
	if err != nil {
		t.Fatal(err)
	}
	if err := replica.Promote(); err == nil {
		t.Fatal("promoted twice")
	}
	if got := replica.Journal().LastSeq(); got != seq {
		t.Fatalf("promoted at seq %d, primary was at %d", got, seq)
	}
	if code, got := fullList(t, replica); code != http.StatusOK || got != want {
		t.Fatalf("promoted /deltas/full: %d %q, primary served %q", code, got, want)
	}
	doc := replica.Status().(map[string]any)
	for _, k := range []string{"feed", "journal", "repl_follower"} {
		if _, ok := doc[k]; !ok {
			t.Errorf("status lacks %q after promotion", k)
		}
	}
	create(t, replica.EPP, "after-promotion.com")
	if replica.Journal().LastSeq() != seq+1 {
		t.Fatalf("create did not reach the promoted journal: seq %d", replica.Journal().LastSeq())
	}
	purgeOne(t, replica.Store)
	if code := poll(t, replica.EPP, sponsor); code != epp.CodeAckToDequeue {
		t.Fatalf("promoted replica poll after a purge: code %d, want a message", code)
	}
}

// TestClosedNodeIsCollectable: after Close nothing keeps the node or its
// feed hub reachable. (The store cannot be watched: the journal refers back
// to it, and a finalizer never runs on an object in a cycle.)
func TestClosedNodeIsCollectable(t *testing.T) {
	run := func(dir string) *Node {
		n, err := Start(Config{EPP: "127.0.0.1:0", Scope: "127.0.0.1:0", Replication: "127.0.0.1:0",
			DataDir: dir, Mode: journal.ModeAsync, Clock: simtime.NewSimClock(day.At(18, 0, 0)),
			Credentials: creds, Boot: seed})
		if err != nil {
			t.Fatal(err)
		}
		cli, err := epp.Dial(n.Addr("EPP"))
		if err != nil {
			t.Fatal(err)
		}
		if err := cli.Login(catcher, creds[catcher]); err != nil {
			t.Fatal(err)
		}
		if _, err := cli.Create("collect.com", 1); err != nil {
			t.Fatal(err)
		}
		cli.Close()
		fullList(t, n)
		http.DefaultClient.CloseIdleConnections()
		if err := n.Close(); err != nil {
			t.Fatal(err)
		}
		return n
	}
	gctest.Collected(t, func() *Node { return run(t.TempDir()) })
	gctest.Collected(t, func() *feed.Hub { return run(t.TempDir()).Hub() })
}

// fullList fetches n's /deltas/full.
func fullList(t *testing.T, n *Node) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + n.Addr("pending-delete list") + "/deltas/full")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// create registers name for the catcher over in-process EPP.
func create(t *testing.T, srv *epp.Server, name string) {
	t.Helper()
	cli := srv.ConnectInProc()
	defer cli.Close()
	if err := cli.Login(catcher, creds[catcher]); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Create(name, 1); err != nil {
		t.Fatalf("create %s: %v", name, err)
	}
}

// poll returns the result code of registrar's poll request.
func poll(t *testing.T, srv *epp.Server, registrar int) int {
	t.Helper()
	cli, conn := net.Pipe()
	defer cli.Close()
	go srv.ServeConn(conn)
	var resp epp.Response
	for _, req := range []epp.Request{
		{Cmd: epp.CmdLogin, Registrar: registrar, Token: creds[registrar]},
		{Cmd: epp.CmdPoll, PollOp: epp.PollOpRequest},
	} {
		resp = epp.Response{}
		if err := epp.WriteFrame(cli, &req); err != nil {
			t.Fatal(err)
		}
		if err := epp.ReadFrame(cli, &resp); err != nil {
			t.Fatal(err)
		}
		if req.Cmd == epp.CmdLogin && resp.Code != epp.CodeOK {
			t.Fatalf("login %d: code %d", registrar, resp.Code)
		}
	}
	return resp.Code
}

// purgeOne releases the first name of day's Drop in s.
func purgeOne(t *testing.T, s *registry.Store) {
	t.Helper()
	runner := registry.NewDropRunner(s, registry.DropConfig{StartHour: 19, BaseRatePerSec: 20})
	if _, err := runner.Apply(runner.Schedule(day, rand.New(rand.NewSource(1)))[0]); err != nil {
		t.Fatal(err)
	}
}
