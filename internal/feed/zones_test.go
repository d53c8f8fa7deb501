package feed

import (
	"net/http"
	"strings"
	"testing"

	"dropzero/internal/model"
	"dropzero/internal/zone"
)

func nordicFeedZone() zone.Config {
	return zone.Config{
		Name:      "nordic",
		TLDs:      []model.TLD{"se", "nu"},
		Lifecycle: zone.DefaultLifecycleConfig(),
		Drop:      zone.DropConfig{StartHour: 4},
		Policy:    zone.PolicyInstant,
	}
}

// One hub, two zones: the unscoped feed must keep serving everything exactly
// as before, while zone= narrows deltas and full lists to the zone's TLDs
// with zone-distinct ETags.
func TestDeltasPerZone(t *testing.T) {
	e := newEnv(t, Options{})
	if err := e.store.AddZone(nordicFeedZone()); err != nil {
		t.Fatal(err)
	}
	e.hub.SetZones(e.store.Zones())
	seedPending(t, e.store, "alpha.com", day0())
	seedPending(t, e.store, "beta.net", day0())
	seedPending(t, e.store, "fjord.se", day0().AddDays(1))
	seedPending(t, e.store, "ice.nu", day0().AddDays(1))
	e.hub.Quiesce()

	get := func(path string) (string, string, int) {
		t.Helper()
		resp, body := e.get(t, path)
		return body, resp.Header.Get("ETag"), resp.StatusCode
	}

	all, allTag, code := get("/deltas?since=0")
	if code != http.StatusOK {
		t.Fatalf("unscoped deltas: %d", code)
	}
	for _, name := range []string{"alpha.com", "beta.net", "fjord.se", "ice.nu"} {
		if !strings.Contains(all, name) {
			t.Errorf("unscoped deltas missing %s", name)
		}
	}

	core, coreTag, code := get("/deltas?since=0&zone=core")
	if code != http.StatusOK {
		t.Fatalf("zone=core deltas: %d", code)
	}
	if !strings.Contains(core, "alpha.com") || !strings.Contains(core, "beta.net") {
		t.Error("zone=core deltas missing its own names")
	}
	if strings.Contains(core, ".se") || strings.Contains(core, ".nu") {
		t.Error("zone=core deltas leak the other zone's names")
	}

	nordic, nordicTag, code := get("/deltas?since=0&zone=nordic")
	if code != http.StatusOK {
		t.Fatalf("zone=nordic deltas: %d", code)
	}
	if !strings.Contains(nordic, "fjord.se") || !strings.Contains(nordic, "ice.nu") {
		t.Error("zone=nordic deltas missing its own names")
	}
	if strings.Contains(nordic, ".com") || strings.Contains(nordic, ".net") {
		t.Error("zone=nordic deltas leak the other zone's names")
	}

	if allTag == coreTag || coreTag == nordicTag || allTag == nordicTag {
		t.Errorf("ETags not zone-distinct: all=%q core=%q nordic=%q", allTag, coreTag, nordicTag)
	}
	if !strings.Contains(coreTag, "@core") || !strings.Contains(nordicTag, "@nordic") {
		t.Errorf("zone ETags missing zone suffix: %q %q", coreTag, nordicTag)
	}

	if _, _, code := get("/deltas?since=0&zone=ghost"); code != http.StatusNotFound {
		t.Errorf("unknown zone = %d, want 404", code)
	}

	// The full list narrows the same way.
	full, _, code := get("/deltas/full?zone=nordic")
	if code != http.StatusOK {
		t.Fatalf("zone=nordic full: %d", code)
	}
	if !strings.Contains(full, "fjord.se") || strings.Contains(full, "alpha.com") {
		t.Errorf("zone=nordic full list wrong:\n%s", full)
	}
	if _, _, code := get("/deltas/full?zone=ghost"); code != http.StatusNotFound {
		t.Errorf("unknown zone full = %d, want 404", code)
	}

	// A zone-scoped cursor must revalidate like the unscoped one.
	req, _ := http.NewRequest(http.MethodGet, e.srv.URL+"/deltas?since=0&zone=nordic", nil)
	req.Header.Set("If-None-Match", nordicTag)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("zone revalidation = %s, want 304", resp.Status)
	}
}
