package loadgen

import (
	"slices"
	"testing"
	"time"
)

func TestDropCatchScheduleShape(t *testing.T) {
	s := DropCatchSchedule{
		Lead:          100 * time.Millisecond,
		FastInterval:  100 * time.Millisecond,
		FastRetries:   5,
		BackoffFactor: 2,
		Horizon:       10 * time.Second,
	}
	drop := 1 * time.Second
	offs := s.Offsets(drop)
	if !slices.IsSorted(offs) {
		t.Fatalf("offsets not ascending: %v", offs)
	}
	if offs[0] != drop-s.Lead {
		t.Fatalf("first attempt at %v, want %v", offs[0], drop-s.Lead)
	}
	// The fast phase: attempts 1..5 spaced exactly FastInterval.
	for i := 1; i <= s.FastRetries; i++ {
		if got := offs[i] - offs[i-1]; got != s.FastInterval {
			t.Fatalf("fast gap %d = %v, want %v", i, got, s.FastInterval)
		}
	}
	// Backoff phase: strictly widening gaps.
	for i := s.FastRetries + 2; i < len(offs); i++ {
		if offs[i]-offs[i-1] <= offs[i-1]-offs[i-2] {
			t.Fatalf("backoff not widening at %d: %v", i, offs)
		}
	}
	// Nothing beyond the horizon, and the tail gets reasonably close to it.
	limit := drop + s.Horizon
	if last := offs[len(offs)-1]; last > limit || last < limit/2 {
		t.Fatalf("last attempt %v, horizon limit %v", last, limit)
	}
}

func TestDropCatchScheduleClamps(t *testing.T) {
	// Lead longer than the drop offset: first attempt clamps to zero.
	s := DropCatchSchedule{Lead: time.Hour, Horizon: time.Second}
	offs := s.Offsets(500 * time.Millisecond)
	if offs[0] != 0 {
		t.Fatalf("first attempt = %v, want 0", offs[0])
	}
	// Pathological factor and zero interval still terminate (defaults kick
	// in) and always yield at least one attempt.
	s = DropCatchSchedule{BackoffFactor: 0.1, Horizon: time.Minute}
	offs = s.Offsets(0)
	if len(offs) == 0 || len(offs) > 100 {
		t.Fatalf("degenerate schedule has %d attempts", len(offs))
	}
	// Zero horizon: the schedule is just the pre-drop shot.
	s = DropCatchSchedule{Lead: 50 * time.Millisecond}
	offs = s.Offsets(time.Second)
	if len(offs) != 1 {
		t.Fatalf("zero-horizon schedule = %v, want one attempt", offs)
	}
	if s.Aggressiveness() != 10 {
		t.Fatalf("default aggressiveness = %v, want 10/s", s.Aggressiveness())
	}
}
