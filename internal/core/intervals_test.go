package core

import (
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"
	"time"

	"dropzero/internal/model"
	"dropzero/internal/simtime"
)

func delayList(seconds ...int) []DelayResult {
	out := make([]DelayResult, len(seconds))
	for i, s := range seconds {
		o := mkObs(strconv.Itoa(i)+".com", simtime.Day{}, model.PriorRegistration{}, nil)
		out[i] = DelayResult{
			Obs:   &o,
			Delay: time.Duration(s) * time.Second,
		}
	}
	return out
}

func TestBuildIntervalsMinCount(t *testing.T) {
	delays := delayList(0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9)
	ivs := BuildIntervals(delays, time.Hour, 4)
	if len(ivs) != 3 {
		t.Fatalf("intervals = %d, want 3", len(ivs))
	}
	for i, iv := range ivs {
		if iv.Count() < 4 {
			t.Fatalf("interval %d count = %d", i, iv.Count())
		}
	}
}

func TestBuildIntervalsNeverSplitsTies(t *testing.T) {
	// Ten domains at delay 0 with minCount 3: all ten must share one
	// interval because second-precision ties cannot be subdivided.
	delays := delayList(0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5, 5, 5)
	ivs := BuildIntervals(delays, time.Hour, 3)
	if len(ivs) != 2 {
		t.Fatalf("intervals = %d, want 2", len(ivs))
	}
	if ivs[0].Count() != 10 || ivs[0].Lo != 0 || ivs[0].Hi != 0 {
		t.Fatalf("tie interval: %+v", ivs[0])
	}
}

func TestBuildIntervalsMergesShortTail(t *testing.T) {
	delays := delayList(0, 0, 0, 0, 10, 20)
	ivs := BuildIntervals(delays, time.Hour, 4)
	if len(ivs) != 1 {
		t.Fatalf("intervals = %d, want 1 (tail merged)", len(ivs))
	}
	if ivs[0].Count() != 6 || ivs[0].Hi != 20*time.Second {
		t.Fatalf("merged interval: %+v", ivs[0])
	}
}

func TestBuildIntervalsHorizon(t *testing.T) {
	delays := delayList(0, 1, 2, 100000)
	ivs := BuildIntervals(delays, time.Hour, 2)
	total := 0
	for _, iv := range ivs {
		total += iv.Count()
	}
	if total != 3 {
		t.Fatalf("in-horizon total = %d, want 3", total)
	}
}

func TestBuildIntervalsEmpty(t *testing.T) {
	if ivs := BuildIntervals(nil, time.Hour, 5); len(ivs) != 0 {
		t.Fatalf("empty intervals = %v", ivs)
	}
}

func TestBuildIntervalsSingleUndersized(t *testing.T) {
	delays := delayList(1, 2)
	ivs := BuildIntervals(delays, time.Hour, 100)
	if len(ivs) != 1 || ivs[0].Count() != 2 {
		t.Fatalf("undersized single interval: %+v", ivs)
	}
}

func TestMarketShare(t *testing.T) {
	delays := delayList(0, 0, 0, 0)
	for i, registrar := range []int{1, 1, 2, 3} {
		o := mkObs(delays[i].Obs.Name(), testDay, model.PriorRegistration{}, &model.Rereg{RegistrarID: registrar})
		delays[i].Obs = &o
	}
	ivs := BuildIntervals(delays, time.Hour, 4)
	shares := MarketShare(ivs, func(d DelayResult) string {
		switch d.Obs.ReregRegistrar() {
		case 1:
			return "A"
		case 2:
			return "B"
		default:
			return "" // maps to "other"
		}
	})
	if len(shares) != 1 {
		t.Fatalf("share rows = %d", len(shares))
	}
	if got := ShareOf(shares[0], "A"); got != 0.5 {
		t.Fatalf("A share = %f", got)
	}
	if got := ShareOf(shares[0], "B"); got != 0.25 {
		t.Fatalf("B share = %f", got)
	}
	if got := ShareOf(shares[0], "other"); got != 0.25 {
		t.Fatalf("other share = %f", got)
	}
	if got := ShareOf(shares[0], "missing"); got != 0 {
		t.Fatalf("missing share = %f", got)
	}
	// Sorted descending.
	if shares[0][0].Key != "A" {
		t.Fatalf("shares not sorted: %+v", shares[0])
	}
}

// Properties: intervals partition the in-horizon delays; bounds are
// consistent; every interval except possibly a lone first one meets
// minCount; shares sum to 1.
func TestIntervalProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(500)
		delays := make([]DelayResult, n)
		for i := range delays {
			o := mkObs("", testDay, model.PriorRegistration{}, &model.Rereg{RegistrarID: rng.Intn(5)})
			delays[i] = DelayResult{Obs: &o, Delay: time.Duration(rng.Intn(100)) * time.Second}
		}
		minCount := 1 + rng.Intn(30)
		ivs := BuildIntervals(delays, time.Hour, minCount)
		total := 0
		for i, iv := range ivs {
			total += iv.Count()
			if iv.Lo > iv.Hi {
				return false
			}
			if i > 0 && iv.Lo < ivs[i-1].Hi {
				return false
			}
			for _, d := range iv.Items {
				if d.Delay < iv.Lo || d.Delay > iv.Hi {
					return false
				}
			}
			if len(ivs) > 1 && iv.Count() < minCount {
				return false
			}
		}
		if total != n {
			return false
		}
		for _, row := range MarketShare(ivs, func(d DelayResult) string { return strconv.Itoa(d.Obs.ReregRegistrar()) }) {
			sum := 0.0
			for _, s := range row {
				sum += s.Value
			}
			if sum < 0.999 || sum > 1.001 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
