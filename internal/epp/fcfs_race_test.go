package epp

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"dropzero/internal/model"
	"dropzero/internal/registry"
	"dropzero/internal/simtime"
)

// TestCreateRaceDuringDropIsFCFS races real EPP sessions against the Drop
// over TCP, on a sharded store, under -race: four registrars hammer create on
// every name scheduled for deletion while the runner purges them. For every
// name exactly one create must win, every loser must see objectExists, and
// the deletion poll notification must land on the queue of the registrar that
// sponsored the name — nobody else's.
func TestCreateRaceDuringDropIsFCFS(t *testing.T) {
	day := simtime.Day{Year: 2018, Month: time.March, Dom: 8}
	clock := simtime.NewSimClock(day.At(18, 59, 0))
	store := registry.NewStoreWithShards(clock, 8)
	creds := make(map[int]string)
	regIDs := []int{1000, 1001, 1002, 1003}
	for _, r := range regIDs {
		store.AddRegistrar(model.Registrar{IANAID: r, Name: fmt.Sprintf("Racer %d", r)})
		creds[r] = fmt.Sprintf("tok-%d", r)
	}
	poll := NewPollQueue(clock, 0)
	store.SetObserver(poll)

	// Eight contested names, two sponsored by each registrar, all deleting
	// today.
	const nNames = 8
	names := make([]string, nNames)
	sponsorOf := make(map[string]int, nNames)
	for i := range names {
		names[i] = fmt.Sprintf("contested%02d.com", i)
		sponsor := regIDs[i%len(regIDs)]
		sponsorOf[names[i]] = sponsor
		updated := day.AddDays(-35).At(6, 30, i)
		if _, err := store.SeedAt(names[i], sponsor, updated.AddDate(-2, 0, 0), updated,
			updated.AddDate(0, 0, -30), model.StatusPendingDelete, day); err != nil {
			t.Fatal(err)
		}
	}

	srv := NewServer(store, clock, ServerConfig{Credentials: creds, Poll: poll})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	runner := registry.NewDropRunner(store, registry.DropConfig{StartHour: 19, BaseRatePerSec: 10000})
	sched := runner.Schedule(day, rand.New(rand.NewSource(1)))
	if len(sched) != nNames {
		t.Fatalf("scheduled %d deletions, want %d", len(sched), nNames)
	}
	clock.Set(day.At(19, 0, 0))

	var mu sync.Mutex
	winner := make(map[string]int) // name -> winning registrar
	wins := make(map[string]int)   // name -> number of successful creates
	allWon := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(winner) == nNames
	}

	var wg sync.WaitGroup
	start := make(chan struct{})
	for _, reg := range regIDs {
		wg.Add(1)
		go func(reg int) {
			defer wg.Done()
			client, err := Dial(addr.String())
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer client.Close()
			if err := client.Login(reg, creds[reg]); err != nil {
				t.Errorf("login %d: %v", reg, err)
				return
			}
			<-start
			for !allWon() {
				for _, name := range names {
					_, err := client.Create(name, 1)
					switch {
					case err == nil:
						mu.Lock()
						winner[name] = reg
						wins[name]++
						mu.Unlock()
					case IsCode(err, CodeObjectExists):
						// Lost the race (or the name has not dropped yet);
						// keep sweeping, like a real drop-catch script.
					default:
						t.Errorf("create %s as %d: %v", name, reg, err)
						return
					}
				}
			}
		}(reg)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for _, sc := range sched {
			if _, err := runner.Apply(sc); err != nil {
				t.Errorf("apply %s: %v", sc.Name, err)
			}
		}
	}()
	close(start)
	wg.Wait()

	// FCFS: every contested name was won exactly once, and the store agrees
	// with the recorded winner.
	for _, name := range names {
		if n := wins[name]; n != 1 {
			t.Errorf("%s won %d times, want exactly 1", name, n)
		}
		d, err := store.Get(name)
		if err != nil {
			t.Errorf("get %s after race: %v", name, err)
			continue
		}
		if d.RegistrarID != winner[name] {
			t.Errorf("%s sponsored by %d, but registrar %d won the race", name, d.RegistrarID, winner[name])
		}
	}

	// Every deletion notice landed on the old sponsor's poll queue; no other
	// registrar heard about names it did not sponsor.
	for _, reg := range regIDs {
		var mine []string
		for name, sponsor := range sponsorOf {
			if sponsor == reg {
				mine = append(mine, name)
			}
		}
		if got := poll.Len(reg); got != len(mine) {
			t.Errorf("registrar %d has %d poll messages, want %d", reg, got, len(mine))
		}
		for msg, _, ok := poll.Peek(reg); ok; msg, _, ok = poll.Peek(reg) {
			if !strings.Contains(msg.Text, "deleted") {
				t.Errorf("registrar %d: unexpected poll message %q", reg, msg.Text)
			}
			found := false
			for _, name := range mine {
				if strings.Contains(msg.Text, name) {
					found = true
				}
			}
			if !found {
				t.Errorf("registrar %d: poll message %q is not about its domains %v", reg, msg.Text, mine)
			}
			if err := poll.Ack(reg, msg.ID); err != nil {
				t.Fatalf("ack: %v", err)
			}
		}
	}
}

// TestDeleteRacesTransfer races the sponsor's delete against another
// registrar's transfer of the same name, both through the server's dispatch
// and released together, once per name. Exactly one may succeed: a transfer
// that lands first leaves the deleting registrar no longer the sponsor
// (2201), and a delete that lands first leaves the name in redemption,
// which no transfer takes (2304). Were the delete checked before its commit
// instead of under the shard lock, a transfer could land in between and the
// gaining registrar's new domain would go into redemption, on its way to
// the Drop.
func TestDeleteRacesTransfer(t *testing.T) {
	clock := simtime.NewSimClock(time.Date(2018, 1, 1, 12, 0, 0, 0, time.UTC))
	store := registry.NewStoreWithShards(clock, 8)
	store.AddRegistrar(model.Registrar{IANAID: 7001, Name: "Losing"})
	store.AddRegistrar(model.Registrar{IANAID: 7002, Name: "Gaining"})
	srv := NewServer(store, clock, ServerConfig{})
	losing := &session{registrarID: 7001, loggedIn: true}
	gaining := &session{registrarID: 7002, loggedIn: true}

	const n = 3000
	var deleted, transferred, both int
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("raced%04d.com", i)
		if _, err := store.Create(name, 7001, 1); err != nil {
			t.Fatal(err)
		}
		code, err := store.AuthInfo(name, 7001)
		if err != nil {
			t.Fatal(err)
		}
		var del, xfer Response
		cmds := []func(){
			func() { srv.handle(losing, &Request{Cmd: CmdDelete, Name: name}, &del) },
			func() { srv.handle(gaining, &Request{Cmd: CmdTransfer, Name: name, AuthInfo: code}, &xfer) },
		}
		// The goroutine started last tends to run first: alternate.
		if i%2 == 1 {
			cmds[0], cmds[1] = cmds[1], cmds[0]
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for _, cmd := range cmds {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				cmd()
			}()
		}
		close(start)
		wg.Wait()

		d, _ := store.Lookup(name)
		switch {
		case del.Code == CodeOK && xfer.Code == CodeOK:
			both++
		case del.Code == CodeOK && xfer.Code == CodeStatusProhibits:
			deleted++
			if d.Status != model.StatusRedemption || d.RegistrarID != 7001 {
				t.Fatalf("%s: delete won, yet the name is %v under %d", name, d.Status, d.RegistrarID)
			}
		case xfer.Code == CodeOK && del.Code == CodeAuthorization:
			transferred++
			if d.Status != model.StatusActive || d.RegistrarID != 7002 {
				t.Fatalf("%s: transfer won, yet the name is %v under %d", name, d.Status, d.RegistrarID)
			}
		default:
			t.Fatalf("%s: delete %d %q, transfer %d %q", name, del.Code, del.Msg, xfer.Code, xfer.Msg)
		}
	}
	t.Logf("%d races: delete first %d, transfer first %d", n, deleted, transferred)
	if both > 0 {
		t.Errorf("in %d of %d races both the delete and the transfer succeeded: the gaining registrar's name went into redemption", both, n)
	}
}
