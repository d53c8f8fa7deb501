package epp

import (
	"testing"
	"time"

	"dropzero/internal/model"
	"dropzero/internal/registry"
	"dropzero/internal/simtime"
)

// TestReadOnlyRejectsMutations pins the replica stance: every mutating
// command is refused with CodePolicyViolation while reads keep working,
// nothing reaches the store, and lifting the gate (promotion) restores
// writes on the same live sessions.
func TestReadOnlyRejectsMutations(t *testing.T) {
	clock := simtime.NewSimClock(time.Date(2018, 1, 1, 12, 0, 0, 0, time.UTC))
	store := registry.NewStore(clock)
	store.AddRegistrar(model.Registrar{IANAID: 7001, Name: "Catcher A"})
	srv := NewServer(store, clock, ServerConfig{
		Credentials: map[int]string{7001: "tok-a"},
		ReadOnly:    true,
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	if _, err := store.Create("preexisting.com", 7001, 1); err != nil {
		t.Fatal(err)
	}

	c := dialLogin(t, addr.String(), 7001, "tok-a")

	// Reads work.
	if avail, err := c.Check("unregistered.com"); err != nil || !avail {
		t.Fatalf("check on replica: avail=%v err=%v", avail, err)
	}
	if _, err := infoOf(c, "preexisting.com"); err != nil {
		t.Fatalf("info on replica: %v", err)
	}

	// Every write path is refused with the policy code.
	if _, err := c.Create("newname.com", 1); !IsCode(err, CodePolicyViolation) {
		t.Fatalf("create on replica: %v", err)
	}
	if err := c.Renew("preexisting.com", 1); !IsCode(err, CodePolicyViolation) {
		t.Fatalf("renew on replica: %v", err)
	}
	if err := c.Update("preexisting.com"); !IsCode(err, CodePolicyViolation) {
		t.Fatalf("update on replica: %v", err)
	}
	if err := c.Delete("preexisting.com"); !IsCode(err, CodePolicyViolation) {
		t.Fatalf("delete on replica: %v", err)
	}
	if err := c.Transfer("preexisting.com", "code"); !IsCode(err, CodePolicyViolation) {
		t.Fatalf("transfer on replica: %v", err)
	}
	if gen := store.Generation(); gen != 2 { // registrar + preexisting create only
		t.Fatalf("store mutated through the read-only gate: generation %d", gen)
	}

	// Promotion lifts the gate without bouncing sessions.
	srv.SetReadOnly(false)
	if srv.ReadOnly() {
		t.Fatal("SetReadOnly(false) did not stick")
	}
	if _, err := c.Create("newname.com", 1); err != nil {
		t.Fatalf("create after promotion: %v", err)
	}
	if _, err := store.Get("newname.com"); err != nil {
		t.Fatalf("promoted create not in store: %v", err)
	}
}
