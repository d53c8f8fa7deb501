package core

import (
	"time"
)

// DropCatchMaxDelay is the paper's threshold: a re-registration is a
// drop-catch when its delay from the earliest possible instant is at most
// three seconds (§4.3).
const DropCatchMaxDelay = 3 * time.Second

// Classifier labels re-registrations as drop-catch or delayed using the
// delay metric, and evaluates the two prior-work heuristics against it.
type Classifier struct {
	// MaxDelay is the drop-catch threshold; zero means DropCatchMaxDelay.
	MaxDelay time.Duration
	// WindowStartHour/WindowEndHour bound the fixed Drop-window heuristic
	// (19:00:00–19:59:59 UTC in the paper). End is exclusive.
	WindowStartHour int
	WindowEndHour   int
}

// NewClassifier returns a Classifier with the paper's parameters.
func NewClassifier() *Classifier {
	return &Classifier{MaxDelay: DropCatchMaxDelay, WindowStartHour: 19, WindowEndHour: 20}
}

func (c *Classifier) maxDelay() time.Duration {
	if c.MaxDelay == 0 {
		return DropCatchMaxDelay
	}
	return c.MaxDelay
}

// IsDropCatch applies the delay metric.
func (c *Classifier) IsDropCatch(d DelayResult) bool { return d.Delay <= c.maxDelay() }

// SameDayHeuristic is prior work's approximation: every re-registration on
// the deletion day counts as drop-catch.
func (c *Classifier) SameDayHeuristic(d DelayResult) bool { return d.Obs.SameDayRereg() }

// DropWindowHeuristic labels re-registrations made during the fixed Drop
// window on the deletion day as drop-catch.
func (c *Classifier) DropWindowHeuristic(d DelayResult) bool {
	if !d.Obs.SameDayRereg() {
		return false
	}
	h := d.Obs.ReregTime().Hour()
	return h >= c.WindowStartHour && h < c.WindowEndHour
}

// HeuristicEval quantifies a heuristic against the delay metric over the
// same-day re-registration population, reproducing the §4.3 numbers:
//
//   - for the same-day heuristic, FalsePositiveShare ≈ 13.9 % (same-day
//     re-registrations that are not drop-catch) and FalseNegativeShare = 0;
//   - for the Drop-window heuristic, FalseNegativeShare ≈ 9.5 % (drop-catch
//     re-registrations after the window, because the Drop's duration varies)
//     and FalsePositiveShare ≈ 7.4 % (in-window re-registrations with delays
//     above 3 s).
//
// Shares are fractions of all deletion-day re-registrations.
type HeuristicEval struct {
	Name               string
	SameDayTotal       int
	TruePositives      int
	FalsePositives     int
	FalseNegatives     int
	FalsePositiveShare float64
	FalseNegativeShare float64
}

// Evaluate scores a heuristic predicate against the delay metric.
func (c *Classifier) Evaluate(name string, delays []DelayResult, heuristic func(DelayResult) bool) HeuristicEval {
	ev := HeuristicEval{Name: name}
	for _, d := range delays {
		if !d.Obs.SameDayRereg() {
			continue
		}
		ev.SameDayTotal++
		truth := c.IsDropCatch(d)
		pred := heuristic(d)
		switch {
		case pred && truth:
			ev.TruePositives++
		case pred && !truth:
			ev.FalsePositives++
		case !pred && truth:
			ev.FalseNegatives++
		}
	}
	if ev.SameDayTotal > 0 {
		ev.FalsePositiveShare = float64(ev.FalsePositives) / float64(ev.SameDayTotal)
		ev.FalseNegativeShare = float64(ev.FalseNegatives) / float64(ev.SameDayTotal)
	}
	return ev
}

// DropCatchShare returns the fraction of deletion-day re-registrations with
// delay at most the classifier threshold — the paper's 86.1 %.
func (c *Classifier) DropCatchShare(delays []DelayResult) float64 {
	total, dc := 0, 0
	for _, d := range delays {
		if !d.Obs.SameDayRereg() {
			continue
		}
		total++
		if c.IsDropCatch(d) {
			dc++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(dc) / float64(total)
}
