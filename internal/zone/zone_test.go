package zone

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"dropzero/internal/model"
	"dropzero/internal/simtime"
)

func testQueue(n int) []QueueEntry {
	base := time.Date(2018, time.January, 1, 12, 0, 0, 0, time.UTC)
	out := make([]QueueEntry, n)
	for i := range out {
		out[i] = QueueEntry{
			Name:    fmt.Sprintf("domain-%04d.com", i),
			TLD:     model.COM,
			ID:      uint64(i + 1),
			Updated: base.Add(time.Duration(i) * time.Second),
		}
	}
	return out
}

var testDay = simtime.Day{Year: 2018, Month: time.February, Dom: 14}

// Every policy must be a pure function of (day, queue, rng seed): crash
// recovery re-derives a partially executed Drop's plan from exactly those.
func TestPolicyDeterminism(t *testing.T) {
	queue := testQueue(500)
	for _, pol := range []DropPolicy{
		PacedOrdered{Config: DefaultDropConfig()},
		InstantRelease{Config: DropConfig{StartHour: 4}},
		RandomizedOrder{Config: DefaultDropConfig(), Salt: 7},
	} {
		a := pol.Schedule(testDay, slices.Clone(queue), rand.New(rand.NewSource(42)))
		b := pol.Schedule(testDay, slices.Clone(queue), rand.New(rand.NewSource(42)))
		if !slices.Equal(a, b) {
			t.Errorf("%s: two schedules from equal inputs differ", pol.Kind())
		}
		if len(a) != len(queue) {
			t.Errorf("%s: scheduled %d of %d entries", pol.Kind(), len(a), len(queue))
		}
	}
}

func TestPacedOrderedKeepsQueueOrder(t *testing.T) {
	queue := testQueue(300)
	sched := PacedOrdered{Config: DefaultDropConfig()}.Schedule(testDay, queue, rand.New(rand.NewSource(1)))
	start := testDay.At(19, 0, 0)
	for i, s := range sched {
		if s.Name != queue[i].Name || s.Rank != i {
			t.Fatalf("entry %d: got %s rank %d, want queue order", i, s.Name, s.Rank)
		}
		if s.Time.Before(start) {
			t.Fatalf("entry %d released at %v, before the 19:00 start", i, s.Time)
		}
		if i > 0 && s.Time.Before(sched[i-1].Time) {
			t.Fatalf("entry %d released before its predecessor", i)
		}
	}
}

// InstantRelease is the .se/.nu shape: one instant for everything, and no rng
// draws at all (the nil rng would panic on the first draw).
func TestInstantReleaseOneInstant(t *testing.T) {
	queue := testQueue(100)
	sched := InstantRelease{Config: DropConfig{StartHour: 4}}.Schedule(testDay, queue, nil)
	at := testDay.At(4, 0, 0)
	for i, s := range sched {
		if !s.Time.Equal(at) {
			t.Fatalf("entry %d released at %v, want %v", i, s.Time, at)
		}
		if s.Rank != i || s.Name != queue[i].Name {
			t.Fatalf("entry %d: rank/name not preserved from queue order", i)
		}
	}
}

func TestRandomizedOrderShuffles(t *testing.T) {
	queue := testQueue(400)
	pol := RandomizedOrder{Config: DefaultDropConfig(), Salt: 99}
	sched := pol.Schedule(testDay, queue, rand.New(rand.NewSource(1)))

	order := func(s []Scheduled) []string {
		out := make([]string, len(s))
		for i := range s {
			out[i] = s[i].Name
		}
		return out
	}
	inOrder := order(sched)
	var fromQueue []string
	for _, q := range queue {
		fromQueue = append(fromQueue, q.Name)
	}
	if slices.Equal(inOrder, fromQueue) {
		t.Fatal("randomized order equals queue order; rank prediction not defeated")
	}
	sorted := slices.Clone(inOrder)
	slices.Sort(sorted)
	want := slices.Clone(fromQueue)
	slices.Sort(want)
	if !slices.Equal(sorted, want) {
		t.Fatal("shuffle lost or duplicated entries")
	}

	// The shuffle must differ across days and salts, or one leaked schedule
	// would predict every future drop.
	other := pol.Schedule(simtime.Day{Year: 2018, Month: time.February, Dom: 15},
		slices.Clone(queue), rand.New(rand.NewSource(1)))
	if slices.Equal(inOrder, order(other)) {
		t.Error("shuffle identical across days")
	}
	salted := RandomizedOrder{Config: DefaultDropConfig(), Salt: 100}.
		Schedule(testDay, slices.Clone(queue), rand.New(rand.NewSource(1)))
	if slices.Equal(inOrder, order(salted)) {
		t.Error("shuffle identical across salts")
	}
}

// The resume contract: recovery rebuilds a partially executed Drop's queue as
// the already-purged prefix (in purge order) followed by the still-pending
// remainder, re-runs Schedule, and the result must equal the original plan.
func TestRandomizedOrderResumeContract(t *testing.T) {
	queue := testQueue(250)
	pol := RandomizedOrder{Config: DefaultDropConfig(), Salt: 7}
	full := pol.Schedule(testDay, slices.Clone(queue), rand.New(rand.NewSource(9)))

	for _, cut := range []int{0, 1, 97, 249, 250} {
		rebuilt := make([]QueueEntry, 0, len(queue))
		byName := make(map[string]QueueEntry, len(queue))
		for _, q := range queue {
			byName[q.Name] = q
		}
		purged := make(map[string]bool, cut)
		for _, s := range full[:cut] {
			rebuilt = append(rebuilt, byName[s.Name])
			purged[s.Name] = true
		}
		for _, q := range queue {
			if !purged[q.Name] {
				rebuilt = append(rebuilt, q)
			}
		}
		again := pol.Schedule(testDay, rebuilt, rand.New(rand.NewSource(9)))
		if !slices.Equal(full, again) {
			t.Fatalf("cut %d: resumed schedule diverges from original", cut)
		}
	}
}

func TestParseSpec(t *testing.T) {
	c, err := ParseSpec("nordic=se+nu:instant")
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "nordic" || c.Policy != PolicyInstant {
		t.Fatalf("got %q/%s", c.Name, c.Policy)
	}
	if !slices.Equal(c.TLDs, []model.TLD{"se", "nu"}) {
		t.Fatalf("TLDs = %v", c.TLDs)
	}
	if c.Drop.StartHour != 4 || c.Drop.StartMinute != 0 {
		t.Fatalf("instant default start = %02d:%02d, want 04:00", c.Drop.StartHour, c.Drop.StartMinute)
	}

	c, err = ParseSpec("alt=org:random@20:15")
	if err != nil {
		t.Fatal(err)
	}
	if c.Policy != PolicyRandom || c.Drop.StartHour != 20 || c.Drop.StartMinute != 15 {
		t.Fatalf("got %s @%02d:%02d", c.Policy, c.Drop.StartHour, c.Drop.StartMinute)
	}
	if c.Salt == 0 {
		t.Error("randomized zone got zero salt")
	}

	zs, err := ParseSpecs("nordic=se+nu:instant; alt=org:random")
	if err != nil {
		t.Fatal(err)
	}
	if len(zs) != 2 || zs[0].Name != "nordic" || zs[1].Name != "alt" {
		t.Fatalf("ParseSpecs = %+v", zs)
	}
	if zs[0].Salt == zs[1].Salt {
		t.Error("distinct zones share a shuffle salt")
	}

	for _, bad := range []string{
		"", "nozone", "x=com", "x=:paced", "=com:paced",
		"x=com:warp", "x=com+com:paced", "x=com:paced@25:00", "x=com:paced@19",
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

func TestConfigValidateAndHosts(t *testing.T) {
	def := Default()
	if err := def.Validate(); err != nil {
		t.Fatalf("default zone invalid: %v", err)
	}
	set := def.TLDSet()
	if !set[model.COM] || !set[model.NET] || set["se"] || len(set) != 2 {
		t.Fatalf("TLDSet = %v", set)
	}
	for _, tld := range []model.TLD{"a.b", "COM", "c,om", `c"om`, "-se", "se-", ""} {
		bad := Config{Name: "x", TLDs: []model.TLD{tld}, Policy: PolicyPaced}
		if err := bad.Validate(); err == nil {
			t.Errorf("TLD %q accepted", tld)
		}
	}
}
