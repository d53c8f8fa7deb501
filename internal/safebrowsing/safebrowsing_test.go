package safebrowsing

import (
	"math/rand"
	"testing"
	"time"

	"dropzero/internal/inproc"
)

func TestOracleSetLookup(t *testing.T) {
	o := NewOracle()
	o.Set("bad.com", true)
	o.Set("good.com", false)
	if !o.Lookup("bad.com") || o.Lookup("good.com") || o.Lookup("unknown.com") {
		t.Fatal("lookup wrong")
	}
	if o.Count() != 2 {
		t.Fatalf("Count = %d", o.Count())
	}
}

func TestOracleCaseInsensitive(t *testing.T) {
	o := NewOracle()
	o.Set("Bad.COM", true)
	if !o.Lookup("bad.com") {
		t.Fatal("case-insensitive lookup failed")
	}
}

func TestOracleHTTP(t *testing.T) {
	o := NewOracle()
	o.Set("evil.com", true)
	addr, err := o.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	c, err := NewClient("http://"+addr.String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	mal, err := c.Lookup("evil.com")
	if err != nil || !mal {
		t.Fatalf("lookup evil: %v %v", mal, err)
	}
	mal, err = c.Lookup("benign.com")
	if err != nil || mal {
		t.Fatalf("lookup benign: %v %v", mal, err)
	}
}

func TestLabelModelRates(t *testing.T) {
	m := DefaultLabelModel()
	rng := rand.New(rand.NewSource(1))
	count := func(delay time.Duration, n int) float64 {
		hits := 0
		for i := 0; i < n; i++ {
			if m.Label(delay, rng) {
				hits++
			}
		}
		return float64(hits) / float64(n)
	}
	const n = 200000
	if got := count(0, n); got < 0.002 || got > 0.006 {
		t.Fatalf("0s rate = %f, want ≈0.004", got)
	}
	if got := count(45*time.Second, n); got < 0.015 || got > 0.025 {
		t.Fatalf("45s rate = %f, want ≈0.02", got)
	}
	if got := count(3*time.Hour, n); got < 0.003 || got > 0.007 {
		t.Fatalf("3h rate = %f, want ≈0.005", got)
	}
}

func TestLabelModelBandEdges(t *testing.T) {
	m := LabelModel{Rate0s: 0, RateBurst: 1, RateLate: 0}
	rng := rand.New(rand.NewSource(1))
	if m.Label(29*time.Second, rng) {
		t.Fatal("29s fell into burst band")
	}
	if !m.Label(30*time.Second, rng) || !m.Label(60*time.Second, rng) {
		t.Fatal("band edges not inclusive")
	}
	if m.Label(61*time.Second, rng) {
		t.Fatal("61s fell into burst band")
	}
}

// TestBoundClientMatchesHTTP: a bound client and an HTTP client of the same
// oracle give the same answer for a malicious, a benign and an unlabelled
// name, and both refuse an empty one.
func TestBoundClientMatchesHTTP(t *testing.T) {
	o := NewOracle()
	o.Set("evil.com", true)
	o.Set("fine.com", false)
	httpc, err := NewClient("http://oracle.test", inproc.Client(o.Handler()))
	if err != nil {
		t.Fatal(err)
	}
	bound := NewBoundClient(o)
	for name, want := range map[string]bool{"evil.com": true, "EVIL.com": true, "fine.com": false, "absent.com": false} {
		hm, herr := httpc.Lookup(name)
		bm, berr := bound.Lookup(name)
		if herr != nil || berr != nil || hm != want || bm != want {
			t.Errorf("%q: HTTP (%v, %v), bound (%v, %v), want %v", name, hm, herr, bm, berr, want)
		}
	}
	if _, herr := httpc.Lookup(""); herr == nil {
		t.Error("HTTP lookup of an empty name succeeded")
	}
	if _, berr := bound.Lookup(""); berr == nil {
		t.Error("bound lookup of an empty name succeeded")
	}
}
