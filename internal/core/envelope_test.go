package core

import (
	"errors"
	"math/rand"
	"sort"
	"strconv"
	"testing"
	"testing/quick"
	"time"

	"dropzero/internal/model"
	"dropzero/internal/simtime"
)

var testDay = simtime.Day{Year: 2018, Month: time.January, Dom: 2}

// mkObs packs a test row; the fixtures here are all representable.
func mkObs(name string, day simtime.Day, prior model.PriorRegistration, rereg *model.Rereg) model.Observation {
	o, err := model.NewObservation(name, day, prior, rereg, false)
	if err != nil {
		panic(err)
	}
	return o
}

// obsWith builds a testDay observation whose deletion-order key is its index
// (Updated strictly increasing), with the given re-registration (nil for
// none).
func obsWith(i int, rereg *model.Rereg) model.Observation {
	updated := testDay.AddDays(-35).At(6, 0, 0).Add(time.Duration(i) * time.Second)
	return mkObs("d"+strconv.Itoa(i)+".com", testDay, model.PriorRegistration{
		ID:      uint64(i + 1),
		Created: updated.AddDate(-2, 0, 0),
		Updated: updated,
		Expiry:  updated.AddDate(0, 0, -30),
	}, rereg)
}

// obsAt is obsWith re-registered on the deletion day, at the given offset
// (in seconds) from 19:00.
func obsAt(i int, reregOffsetSec int) model.Observation {
	return obsWith(i, &model.Rereg{Time: testDay.At(19, 0, reregOffsetSec), RegistrarID: 9000})
}

// obsNoRereg builds an observation without a re-registration.
func obsNoRereg(i int) model.Observation { return obsWith(i, nil) }

func rankAll(obs []model.Observation) []Ranked { return Rank(obs, OrderLastUpdate) }

// envelopeOf builds ranked's envelope under the default config.
func envelopeOf(t *testing.T, ranked []Ranked) *Envelope {
	t.Helper()
	env, err := BuildEnvelope(ranked, DefaultEnvelopeConfig())
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestEnvelopeBasicDiagonal(t *testing.T) {
	// Ranks 0..9 re-registered at exactly their deletion seconds 0..9.
	var obs []model.Observation
	for i := 0; i < 10; i++ {
		obs = append(obs, obsAt(i, i))
	}
	env := envelopeOf(t, rankAll(obs))
	if env.Len() != 10 {
		t.Fatalf("envelope size = %d, want 10", env.Len())
	}
	for rank := 0; rank < 10; rank++ {
		got, method := env.EarliestAt(rank)
		if method != MethodExact {
			t.Fatalf("rank %d method = %v", rank, method)
		}
		if want := testDay.At(19, 0, rank); !got.Equal(want) {
			t.Fatalf("rank %d earliest = %v, want %v", rank, got, want)
		}
	}
}

func TestEnvelopeExcludesDelayedPoints(t *testing.T) {
	// Rank 5 is re-registered late; it must not be on the curve, and its
	// earliest time must be interpolated between ranks 4 and 6.
	var obs []model.Observation
	for i := 0; i < 10; i++ {
		off := i
		if i == 5 {
			off = 3000 // much later
		}
		obs = append(obs, obsAt(i, off))
	}
	env := envelopeOf(t, rankAll(obs))
	if env.Len() != 9 {
		t.Fatalf("envelope size = %d, want 9", env.Len())
	}
	got, method := env.EarliestAt(5)
	if method != MethodInterpolated {
		t.Fatalf("rank 5 method = %v", method)
	}
	if want := testDay.At(19, 0, 5); !got.Equal(want) {
		t.Fatalf("rank 5 earliest = %v, want %v", got, want)
	}
}

func TestEnvelopeMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var obs []model.Observation
	for i := 0; i < 500; i++ {
		// Deletion second ≈ i/5; most re-registrations instant, others late.
		off := i / 5
		if rng.Intn(3) == 0 {
			off += rng.Intn(1800)
		}
		obs = append(obs, obsAt(i, off))
	}
	env := envelopeOf(t, rankAll(obs))
	pts := env.Points()
	for i := 1; i < len(pts); i++ {
		if pts[i].Time.Before(pts[i-1].Time) {
			t.Fatalf("envelope not monotone at %d", i)
		}
		if pts[i].Rank <= pts[i-1].Rank {
			t.Fatalf("envelope ranks not increasing at %d", i)
		}
	}
}

func TestEnvelopeNoPointBelow(t *testing.T) {
	// Every same-day re-registration must lie on or above the envelope.
	rng := rand.New(rand.NewSource(2))
	var obs []model.Observation
	for i := 0; i < 400; i++ {
		off := i/4 + rng.Intn(600)
		obs = append(obs, obsAt(i, off))
	}
	ranked := rankAll(obs)
	env := envelopeOf(t, ranked)
	for _, r := range ranked {
		earliest, _ := env.EarliestAt(r.Rank)
		// Interpolation rounds to the nearest second, so allow 1 s slack.
		if r.Obs.ReregTime().Add(time.Second).Before(earliest) {
			t.Fatalf("rank %d re-registered at %v, below envelope %v",
				r.Rank, r.Obs.ReregTime(), earliest)
		}
	}
}

func TestEnvelopeTailTruncation(t *testing.T) {
	// A monotone sequence whose last point is 10 minutes after the rest:
	// the §4.2 truncation must drop it.
	var obs []model.Observation
	for i := 0; i < 20; i++ {
		obs = append(obs, obsAt(i, i))
	}
	obs = append(obs, obsAt(20, 620))
	env := envelopeOf(t, rankAll(obs))
	if env.Len() != 20 {
		t.Fatalf("envelope size = %d, want 20 (tail outlier dropped)", env.Len())
	}
	if _, method := env.EarliestAt(20); method != MethodClampedHigh {
		t.Fatalf("rank 20 method = %v, want clamped-high", method)
	}
}

func TestEnvelopeTailTruncationCascades(t *testing.T) {
	// Two trailing outliers, each separated by more than the gap: both go.
	var obs []model.Observation
	for i := 0; i < 20; i++ {
		obs = append(obs, obsAt(i, i))
	}
	obs = append(obs, obsAt(20, 500), obsAt(21, 900))
	env := envelopeOf(t, rankAll(obs))
	if env.Len() != 20 {
		t.Fatalf("envelope size = %d, want 20", env.Len())
	}
}

func TestEnvelopeClampLow(t *testing.T) {
	// No re-registration at ranks 0..4: low ranks clamp to the first point.
	var obs []model.Observation
	for i := 0; i < 5; i++ {
		obs = append(obs, obsNoRereg(i))
	}
	for i := 5; i < 15; i++ {
		obs = append(obs, obsAt(i, i))
	}
	env := envelopeOf(t, rankAll(obs))
	got, method := env.EarliestAt(0)
	if method != MethodClampedLow {
		t.Fatalf("rank 0 method = %v", method)
	}
	if want := testDay.At(19, 0, 5); !got.Equal(want) {
		t.Fatalf("rank 0 earliest = %v, want %v", got, want)
	}
}

func TestEnvelopeInterpolationRounding(t *testing.T) {
	// Points at (0, 0 s) and (3, 10 s): rank 1 interpolates to 3.33 s → 3 s,
	// rank 2 to 6.67 s → 7 s.
	obs := []model.Observation{
		obsAt(0, 0),
		obsNoRereg(1),
		obsNoRereg(2),
		obsAt(3, 10),
	}
	env := envelopeOf(t, rankAll(obs))
	got1, m1 := env.EarliestAt(1)
	got2, m2 := env.EarliestAt(2)
	if m1 != MethodInterpolated || m2 != MethodInterpolated {
		t.Fatalf("methods = %v, %v", m1, m2)
	}
	if want := testDay.At(19, 0, 3); !got1.Equal(want) {
		t.Fatalf("rank 1 = %v, want %v", got1, want)
	}
	if want := testDay.At(19, 0, 7); !got2.Equal(want) {
		t.Fatalf("rank 2 = %v, want %v", got2, want)
	}
}

func TestEnvelopeEmpty(t *testing.T) {
	obs := []model.Observation{obsNoRereg(0), obsNoRereg(1)}
	_, err := BuildEnvelope(rankAll(obs), DefaultEnvelopeConfig())
	if !errors.Is(err, ErrEmptyEnvelope) {
		t.Fatalf("empty envelope error = %v", err)
	}
}

func TestEnvelopeSinglePoint(t *testing.T) {
	obs := []model.Observation{obsAt(0, 5), obsNoRereg(1), obsNoRereg(2)}
	env := envelopeOf(t, rankAll(obs))
	if env.Len() != 1 {
		t.Fatalf("size = %d", env.Len())
	}
	if got, m := env.EarliestAt(2); m != MethodClampedHigh || !got.Equal(testDay.At(19, 0, 5)) {
		t.Fatalf("clamp high on single point: %v %v", got, m)
	}
	if !env.Start().Equal(env.End()) {
		t.Fatal("single-point start != end")
	}
}

func TestEnvelopeNextDayReregIgnored(t *testing.T) {
	// Re-registrations after midnight are not same-day and must not shape
	// the curve.
	o := obsWith(3, &model.Rereg{Time: testDay.Next().At(1, 0, 0), RegistrarID: 9000})
	obs := []model.Observation{obsAt(0, 0), obsAt(1, 1), obsAt(2, 2), o}
	env := envelopeOf(t, rankAll(obs))
	if env.Len() != 3 {
		t.Fatalf("size = %d, want 3", env.Len())
	}
}

func TestEnvelopeGaps(t *testing.T) {
	obs := []model.Observation{obsAt(0, 0), obsAt(1, 1), obsAt(2, 3), obsAt(3, 30)}
	env := envelopeOf(t, rankAll(obs))
	g := env.Gaps()
	if g.Points != 4 {
		t.Fatalf("points = %d", g.Points)
	}
	if g.MaxGap != 27*time.Second {
		t.Fatalf("max gap = %v", g.MaxGap)
	}
	if g.P50Gap != 2*time.Second {
		t.Fatalf("p50 gap = %v", g.P50Gap)
	}
}

func TestEnvelopeRegistrars(t *testing.T) {
	obs := []model.Observation{
		obsWith(0, &model.Rereg{Time: testDay.At(19, 0, 0), RegistrarID: 1}),
		obsWith(1, &model.Rereg{Time: testDay.At(19, 0, 1), RegistrarID: 2}),
	}
	ranked := rankAll(obs)
	env := envelopeOf(t, ranked)
	counts := EnvelopeRegistrars(ranked, env)
	if counts[1] != 1 || counts[2] != 1 {
		t.Fatalf("registrar counts = %v", counts)
	}
}

// Property: the envelope is always monotone non-decreasing in time and
// strictly increasing in rank, no retained point exceeds any later retained
// point, and EarliestAt never returns a time outside [Start, End].
func TestEnvelopeProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(200)
		var obs []model.Observation
		for i := 0; i < n; i++ {
			off := i/3 + rng.Intn(2000)
			if rng.Intn(4) == 0 {
				obs = append(obs, obsNoRereg(i))
			} else {
				obs = append(obs, obsAt(i, off))
			}
		}
		ranked := rankAll(obs)
		env, err := BuildEnvelope(ranked, DefaultEnvelopeConfig())
		if errors.Is(err, ErrEmptyEnvelope) {
			return true
		}
		if err != nil {
			return false
		}
		pts := env.Points()
		if !sort.SliceIsSorted(pts, func(i, j int) bool { return pts[i].Rank < pts[j].Rank }) {
			return false
		}
		for i := 1; i < len(pts); i++ {
			if pts[i].Time.Before(pts[i-1].Time) {
				return false
			}
		}
		for rank := -5; rank < n+5; rank++ {
			got, _ := env.EarliestAt(rank)
			if got.Before(env.Start()) || got.After(env.End()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: adding a *delayed* re-registration never lowers the envelope at
// any rank (delayed points cannot fabricate earlier availability).
func TestEnvelopeDelayedPointsCannotLower(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 30 + rng.Intn(100)
		var obs []model.Observation
		for i := 0; i < n; i++ {
			obs = append(obs, obsAt(i, i/3))
		}
		base, err := BuildEnvelope(rankAll(obs), DefaultEnvelopeConfig())
		if err != nil {
			return false
		}
		// Replace one observation with a delayed re-registration (still
		// same-day, after its original instant).
		k := rng.Intn(n)
		obs[k] = obsAt(k, k/3+1+rng.Intn(100))
		mod, err := BuildEnvelope(rankAll(obs), DefaultEnvelopeConfig())
		if err != nil {
			return false
		}
		for rank := 0; rank < n; rank++ {
			b, _ := base.EarliestAt(rank)
			m, _ := mod.EarliestAt(rank)
			// Allow 1 s slack for interpolation rounding.
			if m.Add(time.Second).Before(b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
