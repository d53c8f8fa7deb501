package core

import (
	"math"
	"sort"
	"time"
)

// Regression is the straight-line baseline the paper considers and rejects
// in §4.2: fit re-registration time as a linear function of deletion rank by
// least squares over the same-day re-registrations, instead of tracing the
// minimum envelope. Deviations of the true deletion process from a straight
// line (stalls, interleaved .net batches, day-specific slopes) make its
// errors minutes-order, which the inference-accuracy ablation demonstrates.
type Regression struct {
	// Intercept is the predicted time at rank 0.
	Intercept time.Time
	// SecPerRank is the slope in seconds per rank.
	SecPerRank float64
	n          int
}

// FitRegression fits the baseline over one day's same-day re-registrations.
// It returns nil when fewer than two points exist.
func FitRegression(ranked []Ranked) *Regression {
	var xs, ys []float64
	var t0 time.Time
	for _, r := range ranked {
		if !r.Obs.SameDayRereg() {
			continue
		}
		if t0.IsZero() {
			t0 = r.Obs.ReregTime()
		}
		xs = append(xs, float64(r.Rank))
		ys = append(ys, r.Obs.ReregTime().Sub(t0).Seconds())
	}
	if len(xs) < 2 {
		return nil
	}
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return nil
	}
	slope := (n*sxy - sx*sy) / den
	intercept := (sy - slope*sx) / n
	return &Regression{
		Intercept:  t0.Add(time.Duration(math.Round(intercept * float64(time.Second)))),
		SecPerRank: slope,
		n:          len(xs),
	}
}

// PredictAt returns the fitted earliest time for a rank, rounded to seconds.
func (r *Regression) PredictAt(rank int) time.Time {
	off := time.Duration(math.Round(r.SecPerRank*float64(rank))) * time.Second
	return r.Intercept.Add(off)
}

// N returns the number of points the line was fitted over.
func (r *Regression) N() int { return r.n }

// AccuracyStats compares predicted earliest times against ground-truth
// deletion instants (available only from the simulator). All values are
// absolute errors.
type AccuracyStats struct {
	N      int
	Mean   time.Duration
	Median time.Duration
	P99    time.Duration
	Max    time.Duration
}

// Accuracy summarises absolute errors between prediction and truth.
// predict maps a rank to a predicted time; truth lists (rank, true time).
func Accuracy(points []Point, predict func(rank int) time.Time) AccuracyStats {
	if len(points) == 0 {
		return AccuracyStats{}
	}
	errs := make([]time.Duration, 0, len(points))
	var sum time.Duration
	for _, p := range points {
		e := predict(p.Rank).Sub(p.Time)
		if e < 0 {
			e = -e
		}
		errs = append(errs, e)
		sum += e
	}
	sortDurations(errs)
	return AccuracyStats{
		N:      len(errs),
		Mean:   sum / time.Duration(len(errs)),
		Median: errs[(len(errs)-1)/2],
		P99:    errs[(len(errs)-1)*99/100],
		Max:    errs[len(errs)-1],
	}
}

func sortDurations(ds []time.Duration) {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
}
