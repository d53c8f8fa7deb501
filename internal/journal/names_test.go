package journal

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"dropzero/internal/model"
	"dropzero/internal/registry"
	"dropzero/internal/simtime"
)

// TestRecordSharesCallerName: the store keeps the name string it is handed
// — the same bytes, never a copy — on every way a registration comes in:
// SeedAt, CreateAt, WAL replay (the names decodeRecord spells) and snapshot
// restore (names cut from decodeDomainSection's shared blocks). Get hands
// those bytes back.
func TestRecordSharesCallerName(t *testing.T) {
	s := newShardedTestStore(2)
	s.AddRegistrar(model.Registrar{IANAID: 900, Name: "R"})
	at := testStart.At(9, 0, 0)
	check := func(how, name string) {
		t.Helper()
		d, err := s.Get(name)
		if err != nil {
			t.Fatalf("%s: %v", how, err)
		}
		if unsafe.StringData(d.Name) != unsafe.StringData(name) {
			t.Errorf("%s: Get(%q) returns a copy of the caller's name", how, name)
		}
	}

	seeded := strings.Clone("seeded.com")
	if _, err := s.SeedAt(seeded, 900, at, at, at.AddDate(1, 0, 0), model.StatusActive, simtime.Day{}); err != nil {
		t.Fatal(err)
	}
	check("SeedAt", seeded)
	created := strings.Clone("created.com")
	if _, err := s.CreateAt(created, 900, 1, at); err != nil {
		t.Fatal(err)
	}
	check("CreateAt", created)

	var wal []byte
	for i := range 3 {
		m := registry.Mutation{Kind: registry.MutCreate, ID: uint64(10 + i), Name: fmt.Sprintf("replayed%d.com", i),
			RegistrarID: 900, Created: at, Updated: at, Expiry: at.AddDate(1, 0, 0)}
		body, err := appendMutation(nil, &m)
		if err != nil {
			t.Fatal(err)
		}
		wal = append(wal, testFrame(uint64(1+i), recMutation, body)...)
	}
	ms, _, err := DecodeFrames(nil, wal, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyBatch(ms, 2); err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		check("WAL replay", m.Name)
	}

	sec := newDomainSection(0, 3, 0)
	for i := range 3 {
		d := model.Domain{ID: uint64(20 + i), Name: fmt.Sprintf("restored%d.com", i), TLD: "com", RegistrarID: 900,
			Created: at, Updated: at, Expiry: at.AddDate(1, 0, 0), Status: model.StatusRedemption}
		sec = appendDomain(sec, &d, nil)
	}
	var restored []string
	if err := decodeDomainSection(sec[secHeader+1:], func(ds []registry.SnapshotDomain) error {
		for _, sd := range ds {
			restored = append(restored, sd.Domain.Name)
		}
		return s.InstallRestoredDomains(ds)
	}); err != nil {
		t.Fatal(err)
	}
	if len(restored) != 3 {
		t.Fatalf("restored %d names, want 3", len(restored))
	}
	for _, name := range restored {
		check("snapshot restore", name)
	}
}
