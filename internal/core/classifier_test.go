package core

import (
	"testing"
	"time"

	"dropzero/internal/model"
)

// mkDelay builds a DelayResult directly for classifier tests.
func mkDelay(sameDay bool, reregHour int, delay time.Duration) DelayResult {
	day := testDay
	var rt time.Time
	if sameDay {
		rt = day.At(reregHour, 5, 0)
	} else {
		rt = day.Next().At(reregHour, 5, 0)
	}
	o := mkObs("x.com", day, model.PriorRegistration{}, &model.Rereg{Time: rt})
	return DelayResult{Obs: &o, Delay: delay}
}

func TestClassifierIsDropCatch(t *testing.T) {
	c := NewClassifier()
	if !c.IsDropCatch(mkDelay(true, 19, 0)) {
		t.Fatal("0 s not drop-catch")
	}
	if !c.IsDropCatch(mkDelay(true, 19, 3*time.Second)) {
		t.Fatal("3 s not drop-catch")
	}
	if c.IsDropCatch(mkDelay(true, 19, 4*time.Second)) {
		t.Fatal("4 s classified as drop-catch")
	}
}

func TestClassifierZeroValueUsesDefault(t *testing.T) {
	var c Classifier
	if !c.IsDropCatch(mkDelay(true, 19, 3*time.Second)) {
		t.Fatal("zero-value classifier lost the default threshold")
	}
}

func TestSameDayHeuristic(t *testing.T) {
	c := NewClassifier()
	if !c.SameDayHeuristic(mkDelay(true, 23, time.Hour)) {
		t.Fatal("same-day rereg not flagged")
	}
	if c.SameDayHeuristic(mkDelay(false, 1, time.Hour)) {
		t.Fatal("next-day rereg flagged")
	}
}

func TestDropWindowHeuristic(t *testing.T) {
	c := NewClassifier()
	if !c.DropWindowHeuristic(mkDelay(true, 19, time.Hour)) {
		t.Fatal("19 h rereg not in window")
	}
	if c.DropWindowHeuristic(mkDelay(true, 20, 0)) {
		t.Fatal("20 h rereg in window")
	}
	if c.DropWindowHeuristic(mkDelay(false, 19, 0)) {
		t.Fatal("next-day 19 h rereg in window")
	}
}

func TestEvaluateConfusion(t *testing.T) {
	c := NewClassifier()
	delays := []DelayResult{
		mkDelay(true, 19, 0),              // TP under window heuristic
		mkDelay(true, 19, 10*time.Second), // FP under window heuristic
		mkDelay(true, 20, 2*time.Second),  // FN under window heuristic (after 20:00, real drop-catch)
		mkDelay(true, 22, time.Hour),      // TN
		mkDelay(false, 3, 8*time.Hour),    // not same-day: excluded
	}
	ev := c.Evaluate("drop-window", delays, c.DropWindowHeuristic)
	if ev.SameDayTotal != 4 {
		t.Fatalf("total = %d", ev.SameDayTotal)
	}
	if ev.TruePositives != 1 || ev.FalsePositives != 1 || ev.FalseNegatives != 1 {
		t.Fatalf("confusion = %+v", ev)
	}
	if ev.FalsePositiveShare != 0.25 || ev.FalseNegativeShare != 0.25 {
		t.Fatalf("shares = %+v", ev)
	}
}

func TestEvaluateSameDayHeuristicNoFalseNegatives(t *testing.T) {
	c := NewClassifier()
	delays := []DelayResult{
		mkDelay(true, 19, 0),
		mkDelay(true, 21, time.Hour),
		mkDelay(false, 3, 8*time.Hour),
	}
	ev := c.Evaluate("same-day", delays, c.SameDayHeuristic)
	if ev.FalseNegatives != 0 {
		t.Fatalf("same-day heuristic produced FNs: %+v", ev)
	}
	if ev.FalsePositives != 1 {
		t.Fatalf("FP = %d, want 1 (the delayed same-day rereg)", ev.FalsePositives)
	}
}

func TestDropCatchShare(t *testing.T) {
	c := NewClassifier()
	delays := []DelayResult{
		mkDelay(true, 19, 0),
		mkDelay(true, 19, 2*time.Second),
		mkDelay(true, 21, time.Hour),
		mkDelay(false, 3, 8*time.Hour), // excluded: not same-day
	}
	if got := c.DropCatchShare(delays); got != 2.0/3.0 {
		t.Fatalf("share = %f", got)
	}
	if got := c.DropCatchShare(nil); got != 0 {
		t.Fatalf("empty share = %f", got)
	}
}
