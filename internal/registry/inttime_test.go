package registry

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dropzero/internal/model"
	"dropzero/internal/simtime"
)

// refDueDay is duePolicy.dueDay as it was while records held Unix seconds
// and buckets were keyed by calendar day: a time.Time per call, the
// calendar's AddDate for the grace and redemption lengths. Retained as the
// integer version's reference.
func refDueDay(p duePolicy, r *record) simtime.Day {
	if zp, ok := p.perTLD[r.tld()]; ok {
		return refDueDay(*zp, r)
	}
	switch r.status() {
	case model.StatusAutoRenew:
		g := p.defaultGraceDays
		if v, ok := p.graceDays[int(r.registrar)]; ok {
			g = v
		}
		return simtime.DayOf(simtime.UnpackTime(r.expiry).AddDate(0, 0, g))
	case model.StatusRedemption:
		return simtime.DayOf(simtime.UnpackTime(r.updated).AddDate(0, 0, p.redemptionDays))
	default:
		return r.domain().DeleteDay
	}
}

// TestDueDayMatchesCalendar holds the integer due day to the calendar one
// over random instants (the ends of the stored range and the zero time
// included), bucketed states, registrars, grace and redemption lengths, and a zone
// with its own lengths for one TLD. The zero time (year 1) and an unset
// delete day have no day number; both file under key 0, below every real day.
func TestDueDayMatchesCalendar(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	edges := []uint32{0, 1, 2, 86400, 86401, 1<<32 - 86401, 1<<32 - 2, 1<<32 - 1}
	instant := func() uint32 {
		if rng.Intn(8) == 0 {
			return edges[rng.Intn(len(edges))]
		}
		return rng.Uint32()
	}
	for round := 0; round < 200; round++ {
		p := duePolicy{
			redemptionDays:   rng.Intn(60),
			defaultGraceDays: rng.Intn(90),
			graceDays:        map[int]int{1000: rng.Intn(90), 1001: 0},
			perTLD: map[model.TLD]*duePolicy{"se": {
				redemptionDays:   rng.Intn(60),
				defaultGraceDays: rng.Intn(90),
				graceDays:        map[int]int{1002: rng.Intn(400)},
			}},
		}
		if round%4 == 0 {
			p.perTLD = nil
		}
		for i := 0; i < 500; i++ {
			r := record{
				created:   instant(),
				updated:   instant(),
				expiry:    instant(),
				registrar: int32(1000 + rng.Intn(4)),
				meta:      uint8(firstDueState) + uint8(rng.Intn(dueStates)),
			}
			r.setName([]string{"a.com", "b.net", "c.se"}[rng.Intn(3)])
			if r.status() == model.StatusPendingDelete && rng.Intn(4) != 0 {
				r.deleteDay = uint16(rng.Intn(1 << 16))
			}
			ref := refDueDay(p, &r)
			if got, want := p.dueDay(&r), uint32(max(ref.Number(), 0)); got != want {
				t.Fatalf("round %d: dueDay(%+v) under %+v = %d (%v), calendar says %v (%d)",
					round, r, p, got, simtime.DayNumbered(int64(got)), ref, want)
			}
		}
	}
}

// TestMutatorsRefuseUnrepresentable feeds every live mutator an instant or a
// day the 48-byte record cannot hold. Each must fail with errUnrepresentable
// and leave the registration, the generation, the due bucket, the ID
// allocator and the journal exactly as they were.
func TestMutatorsRefuseUnrepresentable(t *testing.T) {
	var (
		in2018  = time.Date(2018, 1, 1, 12, 0, 0, 0, time.UTC)
		in1969  = time.Date(1969, 12, 31, 23, 59, 59, 0, time.UTC)
		in2100  = time.Date(2100, 1, 1, 0, 0, 0, 0, time.UTC)
		pastEnd = time.Date(2106, 2, 7, 6, 28, 15, 0, time.UTC)
		noDay   = simtime.Day{}
	)
	cases := []struct {
		name string
		op   func(s *Store, clock *simtime.SimClock) error
	}{
		{"CreateAt past the end", func(s *Store, _ *simtime.SimClock) error {
			_, err := s.CreateAt("new.com", 1000, 1, pastEnd)
			return err
		}},
		{"CreateAt before the epoch", func(s *Store, _ *simtime.SimClock) error {
			_, err := s.CreateAt("new.com", 1000, 1, in1969)
			return err
		}},
		{"CreateAt whose term ends past the end", func(s *Store, _ *simtime.SimClock) error {
			_, err := s.CreateAt("new.com", 1000, 10, in2100)
			return err
		}},
		{"SeedAt created before the epoch", func(s *Store, _ *simtime.SimClock) error {
			_, err := s.SeedAt("new.com", 1000, in1969, in2018, in2018, model.StatusActive, noDay)
			return err
		}},
		{"SeedAt expiry in year 10000", func(s *Store, _ *simtime.SimClock) error {
			_, err := s.SeedAt("new.com", 1000, in2018, in2018, time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC), model.StatusActive, noDay)
			return err
		}},
		{"SeedAt delete day 65536", func(s *Store, _ *simtime.SimClock) error {
			_, err := s.SeedAt("new.com", 1000, in2018, in2018, in2018, model.StatusPendingDelete, simtime.Day{Year: 2149, Month: 6, Dom: 7})
			return err
		}},
		{"SeedAt delete day 0", func(s *Store, _ *simtime.SimClock) error {
			_, err := s.SeedAt("new.com", 1000, in2018, in2018, in2018, model.StatusPendingDelete, simtime.Day{Year: 1970, Month: 1, Dom: 1})
			return err
		}},
		{"TouchAt past the end", func(s *Store, _ *simtime.SimClock) error { return s.TouchAt("held.com", 1000, pastEnd) }},
		{"TouchAt before the epoch", func(s *Store, _ *simtime.SimClock) error { return s.TouchAt("held.com", 1000, in1969) }},
		{"Touch with the clock past the end", func(s *Store, clock *simtime.SimClock) error {
			clock.Set(pastEnd)
			return s.Touch("held.com", 1000)
		}},
		{"Renew with the clock past the end", func(s *Store, clock *simtime.SimClock) error {
			clock.Set(pastEnd)
			return s.Renew("held.com", 1000, 1)
		}},
		{"Renew to an expiry past the end", func(s *Store, _ *simtime.SimClock) error { return s.Renew("late.com", 1000, 10) }},
		{"Transfer with the clock past the end", func(s *Store, clock *simtime.SimClock) error {
			code, _ := s.AuthInfo("held.com", 1000)
			clock.Set(pastEnd)
			return s.Transfer("held.com", 1001, code)
		}},
		{"MarkRedemption past the end", func(s *Store, _ *simtime.SimClock) error { return s.MarkRedemption("held.com", pastEnd) }},
		{"MarkPendingDelete updated before the epoch", func(s *Store, _ *simtime.SimClock) error {
			return s.MarkPendingDelete("held.com", in1969, simtime.Day{Year: 2018, Month: 2, Dom: 1})
		}},
		{"MarkPendingDelete on day 65536", func(s *Store, _ *simtime.SimClock) error {
			return s.MarkPendingDelete("held.com", time.Time{}, simtime.Day{Year: 2149, Month: 6, Dom: 7})
		}},
		{"MarkPendingDelete on 30 February", func(s *Store, _ *simtime.SimClock) error {
			return s.MarkPendingDelete("held.com", time.Time{}, simtime.Day{Year: 2018, Month: 2, Dom: 30})
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, clock := testStore(t)
			NewLifecycle(s, DefaultLifecycleConfig())
			if _, err := s.Create("held.com", 1000, 1); err != nil {
				t.Fatal(err)
			}
			if _, err := s.CreateAt("late.com", 1000, 10, time.Date(2090, 1, 1, 0, 0, 0, 0, time.UTC)); err != nil {
				t.Fatal(err)
			}
			cap := &captureJournal{}
			s.SetJournal(cap)
			type state struct {
				held, late   model.Domain
				heldB, lateB simtime.Day
				gen          uint64
				count        int
			}
			observe := func() state {
				held, _ := s.Get("held.com")
				late, _ := s.Get("late.com")
				heldB, _ := bucketDayOf(s, "held.com")
				lateB, _ := bucketDayOf(s, "late.com")
				return state{*held, *late, heldB, lateB, s.Generation(), s.Count()}
			}
			before := observe()
			if err := c.op(s, clock); !errors.Is(err, errUnrepresentable) {
				t.Fatalf("got %v, want errUnrepresentable", err)
			}
			if after := observe(); after != before {
				t.Fatalf("refused mutation changed the store:\n before %+v\n after  %+v", before, after)
			}
			if len(cap.records) != 0 {
				t.Fatalf("refused mutation was journaled: %+v", cap.records)
			}
			checkDuePositions(t, s)
			// A refused create consumed no object ID.
			if d, err := s.CreateAt("next.com", 1000, 1, in2018); err != nil || d.ID != 3 {
				t.Fatalf("next create = %+v, %v; want ID 3", d, err)
			}
		})
	}
}

// TestPurgeRefusesUnrepresentable feeds the live purge and the replay purge
// arm an instant or a rank the 32-byte deletion event cannot hold. Each must
// fail with errUnrepresentable before the registration is removed: Get, the
// generation, the due bucket, the deletion archive and the journal stay
// exactly as they were. A live purge truncates a sub-second part as every
// live mutator does; a replayed record carrying one is not a record this
// store wrote.
func TestPurgeRefusesUnrepresentable(t *testing.T) {
	var (
		day     = simtime.Day{Year: 2018, Month: 1, Dom: 5}
		at      = day.At(19, 0, 3)
		in1969  = time.Unix(-1, 0).UTC()
		pastEnd = time.Date(2106, 2, 7, 6, 28, 15, 0, time.UTC)
	)
	events := map[string]struct {
		at       time.Time
		rank     int
		liveOnly bool // the live purge accepts it
	}{
		"one second before 1970":    {at: in1969},
		"one second past the end":   {at: pastEnd},
		"year 1, not the zero time": {at: time.Time{}.Add(time.Hour)},
		"a 999 ns fraction":         {at: at.Add(999), liveOnly: true},
		"rank -1":                   {at: at, rank: -1},
		"rank 1<<32":                {at: at, rank: 1 << 32},
	}
	paths := map[string]func(s *Store, at time.Time, rank int) error{
		"live": func(s *Store, at time.Time, rank int) error {
			_, err := NewDropRunner(s, DefaultDropConfig()).Apply(Scheduled{Name: "held.com", TLD: model.COM, Time: at, Rank: rank})
			return err
		},
		"replayed": func(s *Store, at time.Time, rank int) error {
			return s.Apply(Mutation{Kind: MutPurge, Name: "held.com", ID: 1, Time: at, Rank: rank})
		},
		"replayed in a batch": func(s *Store, at time.Time, rank int) error {
			return s.ApplyBatch([]Mutation{
				{Kind: MutTouch, Name: "other.com", Updated: at.Truncate(time.Second)},
				{Kind: MutPurge, Name: "held.com", ID: 1, Time: at, Rank: rank},
			}, 2)
		},
	}
	for evName, ev := range events {
		for pathName, purge := range paths {
			t.Run(evName+"/"+pathName, func(t *testing.T) {
				s, _ := testStore(t)
				for _, name := range []string{"held.com", "other.com"} {
					if _, err := s.Create(name, 1000, 1); err != nil {
						t.Fatal(err)
					}
				}
				if err := s.MarkPendingDelete("held.com", time.Time{}, day); err != nil {
					t.Fatal(err)
				}
				cap := &captureJournal{}
				s.SetJournal(cap)
				held := func() string {
					d, err := s.Get("held.com")
					b, _ := bucketDayOf(s, "held.com")
					return fmt.Sprintf("%+v %v in bucket %v, archive %v", d, err, b, s.Deletions(day))
				}
				before, heldBefore := dumpStore(s, day, 1), held()

				err := purge(s, ev.at, ev.rank)
				if ev.liveOnly && pathName == "live" {
					if err != nil {
						t.Fatalf("live purge of a fractional instant: %v", err)
					}
					if got := s.Deletions(day); len(got) != 1 || got[0].Time() != at {
						t.Fatalf("archived %+v, want one event at %v", got, at)
					}
					return
				}
				if !errors.Is(err, errUnrepresentable) {
					t.Fatalf("got %v, want errUnrepresentable", err)
				}
				if got := held(); got != heldBefore {
					t.Fatalf("refused purge changed the registration:\n before %s\n after  %s", heldBefore, got)
				}
				if pathName != "replayed in a batch" { // whose other record may have committed
					diffDumps(t, "before", "after", before, dumpStore(s, day, 1))
				}
				if len(cap.records) != 0 {
					t.Fatalf("refused purge was journaled: %+v", cap.records)
				}
				checkDuePositions(t, s)
			})
		}
	}
}

// TestRenewRejectsBadPeriod: Renew takes its period straight off the EPP
// frame. Anything but 1 to 10 years is ErrBadName (EPP 2004), as for a
// create's term, and changes nothing; it used to shorten terms (-5) and
// store expiries in year 102014 (100000).
func TestRenewRejectsBadPeriod(t *testing.T) {
	s, _ := testStore(t)
	NewLifecycle(s, DefaultLifecycleConfig())
	if _, err := s.Create("held.com", 1000, 1); err != nil {
		t.Fatal(err)
	}
	cap := &captureJournal{}
	s.SetJournal(cap)
	before, _ := s.Get("held.com")
	bucket, _ := bucketDayOf(s, "held.com")
	gen := s.Generation()
	for _, years := range []int{-5, -1, 0, 11, 100000, 1 << 40} {
		if err := s.Renew("held.com", 1000, years); !errors.Is(err, ErrBadName) {
			t.Fatalf("Renew by %d years = %v, want ErrBadName", years, err)
		}
		after, _ := s.Get("held.com")
		if b, _ := bucketDayOf(s, "held.com"); *after != *before || b != bucket || s.Generation() != gen || len(cap.records) != 0 {
			t.Fatalf("refused renewal by %d years changed the store: %+v in bucket %v, generation %d, %d records",
				years, after, b, s.Generation(), len(cap.records))
		}
	}
	for _, years := range []int{1, 10} {
		want := before.Expiry.AddDate(years, 0, 0)
		if err := s.Renew("held.com", 1000, years); err != nil {
			t.Fatal(err)
		}
		before, _ = s.Get("held.com")
		if b, _ := bucketDayOf(s, "held.com"); !before.Expiry.Equal(want) || b != simtime.DayOf(want) {
			t.Fatalf("renewal by %d years: expiry %v in bucket %v, want %v", years, before.Expiry, b, want)
		}
	}
	if len(cap.records) != 2 {
		t.Fatalf("journal holds %d records, want the 2 renewals", len(cap.records))
	}
}
