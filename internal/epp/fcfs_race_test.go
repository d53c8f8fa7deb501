package epp

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"dropzero/internal/model"
	"dropzero/internal/registry"
	"dropzero/internal/simtime"
)

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
