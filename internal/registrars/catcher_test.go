package registrars_test

import (
	"math/rand"
	"strings"
	"testing"

	"dropzero/internal/epp"
	"dropzero/internal/registrars"
	"dropzero/internal/registry"
	"dropzero/internal/storm"
)

// TestCatcherValidation checks that every drop-catch service the directory
// knows can field a catcher (it holds accreditations to log sessions in
// under), and that a catcher without accreditations is refused before any
// session is dialled.
func TestCatcherValidation(t *testing.T) {
	dir := registrars.BuildDirectory(rand.New(rand.NewSource(1)))
	for _, svc := range []string{
		registrars.SvcDropCatch, registrars.SvcSnapNames, registrars.SvcPheenix,
		registrars.SvcXZ, registrars.SvcDynadot, registrars.SvcGoDaddy,
		registrars.SvcXinnet, registrars.Svc1API, registrars.SvcOther,
	} {
		if len(dir.Accreditations(svc)) == 0 {
			t.Errorf("service %q has no accreditations to field a catcher", svc)
		}
	}

	const unknown = "x"
	if ids := dir.Accreditations(unknown); len(ids) != 0 {
		t.Fatalf("unknown service %q has accreditations %v", unknown, ids)
	}
	spec := registrars.StormSpecOf(unknown)
	dialled := false
	_, err := storm.Run(storm.Config{
		Dial: func() (*epp.Client, error) { dialled = true; return nil, nil },
		Drop: []registry.Scheduled{{Name: "a.com"}},
		Profiles: []storm.ClientProfile{{
			Service:        unknown,
			Accreditations: dir.Accreditations(unknown),
			Sessions:       spec.Sessions,
			Schedule:       spec.Schedule,
			Compliant:      spec.Compliant,
		}},
	})
	if err == nil || !strings.Contains(err.Error(), "accreditations") {
		t.Fatalf("catcher with no accreditations accepted: %v", err)
	}
	if dialled {
		t.Fatal("catcher with no accreditations dialled a session")
	}
}
