package core

import (
	"math/rand"
	"slices"
	"strconv"
	"testing"
	"time"

	"dropzero/internal/model"
)

func TestRankByLastUpdate(t *testing.T) {
	// Shuffle insertion order; ranks must follow (Updated, ID).
	obs := []model.Observation{obsAt(3, 0), obsAt(0, 0), obsAt(2, 0), obsAt(1, 0)}
	ranked := Rank(obs, OrderLastUpdate)
	for i, r := range ranked {
		if int(r.Obs.PriorID()) != i+1 {
			t.Fatalf("rank %d holds prior ID %d", i, r.Obs.PriorID())
		}
		if r.Rank != i {
			t.Fatalf("rank field %d at position %d", r.Rank, i)
		}
	}
}

func TestRankTieBrokenByID(t *testing.T) {
	// Equal update times (one registrar batch); the domain ID must induce
	// the total order, as the paper chose.
	shared := testDay.AddDays(-35).At(6, 30, 0)
	mk := func(id uint64) model.Observation {
		return mkObs("t"+strconv.Itoa(int(id))+".com", testDay,
			model.PriorRegistration{ID: id, Updated: shared, Created: shared.AddDate(-1, 0, 0)}, nil)
	}
	obs := []model.Observation{mk(30), mk(10), mk(20)}
	ranked := Rank(obs, OrderLastUpdate)
	if ranked[0].Obs.PriorID() != 10 || ranked[1].Obs.PriorID() != 20 || ranked[2].Obs.PriorID() != 30 {
		t.Fatalf("tie break wrong: %v %v %v",
			ranked[0].Obs.PriorID(), ranked[1].Obs.PriorID(), ranked[2].Obs.PriorID())
	}
}

func TestRankDoesNotMutateInput(t *testing.T) {
	obs := []model.Observation{obsAt(2, 0), obsAt(0, 0), obsAt(1, 0)}
	first := obs[0]
	Rank(obs, OrderLastUpdate)
	if !obs[0].Equal(first) {
		t.Fatal("Rank reordered the input slice")
	}
}

func TestOrderingLessVariants(t *testing.T) {
	oa, ob := obsAt(0, 0), obsAt(1, 0)
	pa, pb := oa.Prior(), ob.Prior()
	pa.RegistrarID, pb.RegistrarID = 2, 1
	oa, ob = mkObs("aaa.com", testDay, pa, nil), mkObs("zzz.com", testDay, pb, nil)
	a, b := &oa, &ob
	if OrderAlphabetical.compare(a, b) >= 0 {
		t.Fatal("alphabetical wrong")
	}
	if OrderDomainID.compare(a, b) >= 0 {
		t.Fatal("domain id wrong")
	}
	if OrderRegistrarID.compare(a, b) <= 0 {
		t.Fatal("registrar id wrong")
	}
	if OrderCreation.compare(a, b) >= 0 {
		t.Fatal("creation wrong")
	}
	if OrderExpiry.compare(a, b) >= 0 {
		t.Fatal("expiry wrong")
	}
}

func TestOrderScorePerfectOrder(t *testing.T) {
	var obs []model.Observation
	for i := 0; i < 200; i++ {
		obs = append(obs, obsAt(i, i/4))
	}
	score := OrderScore(Rank(obs, OrderLastUpdate))
	if score < 0.95 {
		t.Fatalf("perfect order score = %.3f, want ≈1", score)
	}
}

func TestOrderScoreShuffledOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var obs []model.Observation
	for i := 0; i < 400; i++ {
		obs = append(obs, obsAt(i, i/4))
	}
	// Alphabetical order over random-ish names is unrelated to deletion
	// time: build names that shuffle the alphabetical ranking.
	for i := range obs {
		o := &obs[i]
		obs[i] = mkObs(strconv.Itoa(rng.Intn(1<<30)), testDay, o.Prior(), &model.Rereg{Time: o.ReregTime(), RegistrarID: o.ReregRegistrar()})
	}
	score := OrderScore(Rank(obs, OrderAlphabetical))
	if score > 0.3 || score < -0.3 {
		t.Fatalf("shuffled order score = %.3f, want ≈0", score)
	}
}

func TestOrderScoreTooFewPoints(t *testing.T) {
	if s := OrderScore(Rank([]model.Observation{obsAt(0, 0)}, OrderLastUpdate)); s != 0 {
		t.Fatalf("score with one point = %f", s)
	}
	if s := OrderScore(nil); s != 0 {
		t.Fatalf("score with no points = %f", s)
	}
}

func TestSearchOrderingsIdentifiesTrueOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var obs []model.Observation
	// Build a population where update time (and thus deletion order) is
	// decorrelated from IDs, names, creation and expiration.
	n := 600
	perm := rng.Perm(n)
	for i := 0; i < n; i++ {
		// Deletion position = perm[i]; re-registered right at its slot.
		updated := testDay.AddDays(-35).At(6, 0, 0).Add(time.Duration(perm[i]) * time.Second)
		obs = append(obs, mkObs(strconv.Itoa(rng.Intn(1<<30))+".com", testDay,
			model.PriorRegistration{
				ID:      uint64(i + 1),
				Updated: updated,
				Created: testDay.AddDays(-800-rng.Intn(2000)).At(rng.Intn(24), 0, 0),
				Expiry:  testDay.AddDays(-40-rng.Intn(20)).At(rng.Intn(24), 0, 0),
			},
			&model.Rereg{Time: testDay.At(19, 0, 0).Add(time.Duration(perm[i]/4) * time.Second)}))
	}
	results := SearchOrderings(obs)
	if best := results[0].Ordering; best != OrderLastUpdate && best != OrderLastUpdateCreated {
		t.Fatalf("best ordering = %v (%.3f), want a last-update variant", best, results[0].Score)
	}
	if results[0].Score < 0.9 {
		t.Fatalf("last-update score = %.3f, want ≈1", results[0].Score)
	}
	for _, r := range results[1:] {
		// The two last-update variants are near-identical orders; every
		// other candidate must score clearly lower.
		if r.Ordering == OrderLastUpdate || r.Ordering == OrderLastUpdateCreated {
			continue
		}
		if r.Score > 0.5 {
			t.Fatalf("rejected ordering %v scored %.3f", r.Ordering, r.Score)
		}
	}
}

func TestLastUpdateCreatedTieBreak(t *testing.T) {
	shared := testDay.AddDays(-35).At(6, 30, 0)
	mk := func(id uint64, createdOffset int) model.Observation {
		return mkObs("c"+strconv.Itoa(int(id))+".com", testDay, model.PriorRegistration{
			ID:      id,
			Updated: shared,
			Created: shared.AddDate(-1, 0, createdOffset),
		}, nil)
	}
	// IDs and creation order disagree: the created variant must follow
	// creation time, the default must follow IDs.
	obs := []model.Observation{mk(1, 5), mk(2, 0)}
	byCreated := Rank(obs, OrderLastUpdateCreated)
	if byCreated[0].Obs.PriorID() != 2 {
		t.Fatalf("created tie-break: first = ID %d", byCreated[0].Obs.PriorID())
	}
	byID := Rank(obs, OrderLastUpdate)
	if byID[0].Obs.PriorID() != 1 {
		t.Fatalf("ID tie-break: first = ID %d", byID[0].Obs.PriorID())
	}
}

func TestOrderingString(t *testing.T) {
	for _, o := range Orderings() {
		if o.String() == "" {
			t.Fatalf("ordering %d has empty name", o)
		}
	}
	if Ordering(99).String() != "Ordering(99)" {
		t.Fatal("unknown ordering string")
	}
}

func TestGroupByDay(t *testing.T) {
	day2 := testDay.Next()
	onDay2 := func(i int) model.Observation {
		o := obsAt(i, 0)
		return mkObs(o.Name(), day2, o.Prior(), &model.Rereg{Time: day2.At(19, 0, 0)})
	}
	// Dataset order is neither day order nor deletion order.
	obs := []model.Observation{onDay2(2), obsAt(1, 0), onDay2(0), obsAt(0, 0), obsNoRereg(3)}
	before := append([]model.Observation(nil), obs...)
	groups := GroupByDay(obs, OrderLastUpdate)
	if len(groups) != 2 {
		t.Fatalf("groups = %d", len(groups))
	}
	if groups[0].Day != testDay || len(groups[0].Ranked) != 3 {
		t.Fatalf("first group: %v with %d rows", groups[0].Day, len(groups[0].Ranked))
	}
	if groups[1].Day != day2 || len(groups[1].Ranked) != 2 {
		t.Fatalf("second group: %v with %d rows", groups[1].Day, len(groups[1].Ranked))
	}
	if !groups[0].Day.Before(groups[1].Day) {
		t.Fatal("groups not chronological")
	}
	// Each group is that day's rows ranked exactly as Rank ranks them
	// alone, pointing into the caller's slice.
	for _, g := range groups {
		var day []model.Observation
		for _, o := range obs {
			if o.DeleteDay() == g.Day {
				day = append(day, o)
			}
		}
		want := Rank(day, OrderLastUpdate)
		for k, r := range g.Ranked {
			if r.Rank != k || !r.Obs.Equal(*want[k].Obs) {
				t.Fatalf("%v rank %d: got %s (rank %d), want %s", g.Day, k, r.Obs.Name(), r.Rank, want[k].Obs.Name())
			}
			pointsIn := false
			for i := range obs {
				pointsIn = pointsIn || r.Obs == &obs[i]
			}
			if !pointsIn {
				t.Fatalf("%v rank %d does not point into the dataset", g.Day, k)
			}
		}
	}
	if !slices.EqualFunc(obs, before, model.Observation.Equal) {
		t.Fatal("GroupByDay reordered the input slice")
	}
	// A later group's appends must not run into its neighbour.
	if g := groups[0].Ranked; cap(g) != len(g) {
		t.Fatalf("first group has spare capacity %d", cap(g)-len(g))
	}
}

func TestGroupByDayEmpty(t *testing.T) {
	if got := GroupByDay(nil, OrderLastUpdate); len(got) != 0 {
		t.Fatalf("GroupByDay(nil) = %v", got)
	}
}
