package core

import (
	"errors"
	"math"
	"sort"
	"time"

	"dropzero/internal/model"
)

// EnvelopeConfig parameterises the minimum-envelope computation.
type EnvelopeConfig struct {
	// TruncateGap is the §4.2 end-of-Drop detector: trailing curve points
	// separated from their predecessor by more than this duration are
	// removed, because a large jump at the right end indicates a delayed
	// re-registration rather than an as-early-as-possible one. The paper
	// uses one minute.
	TruncateGap time.Duration
}

// DefaultEnvelopeConfig returns the paper's parameters.
func DefaultEnvelopeConfig() EnvelopeConfig {
	return EnvelopeConfig{TruncateGap: time.Minute}
}

// Point is one (deletion rank, re-registration time) sample on an envelope.
type Point struct {
	Rank int
	Time time.Time
}

// Method records how an earliest-possible time was derived for a rank.
type Method int

// Derivation methods, with the shares the paper reports: 52 % exact, 48 %
// interpolated, 0.02 % clamped.
const (
	// MethodExact: the rank is itself a point on the envelope.
	MethodExact Method = iota
	// MethodInterpolated: linear interpolation between the neighbouring
	// envelope points, rounded to the nearest second.
	MethodInterpolated
	// MethodClampedLow: rank below the first envelope point; its time is used.
	MethodClampedLow
	// MethodClampedHigh: rank above the last envelope point; its time is used.
	MethodClampedHigh
)

// String names the method.
func (m Method) String() string {
	switch m {
	case MethodExact:
		return "exact"
	case MethodInterpolated:
		return "interpolated"
	case MethodClampedLow:
		return "clamped-low"
	case MethodClampedHigh:
		return "clamped-high"
	default:
		return "unknown"
	}
}

// ErrEmptyEnvelope is returned when a day has no same-day re-registrations
// to build a curve from.
var ErrEmptyEnvelope = errors.New("core: no same-day re-registrations to build envelope")

// Envelope is one deletion day's minimum-envelope curve: a sequence of
// re-registrations in deletion order whose timestamps are monotonically
// non-decreasing and minimal. It models the earliest possible
// re-registration instant as a function of deletion rank.
type Envelope struct {
	points []Point
	cfg    EnvelopeConfig
}

// BuildEnvelope computes the curve from one day's ranked observations,
// using only domains re-registered on their deletion day. Implements §4.2:
// iterate over ranks from right to left, retaining any re-registration whose
// timestamp is no larger than the minimum previously added, then truncate
// trailing points separated by more than cfg.TruncateGap.
func BuildEnvelope(ranked []Ranked, cfg EnvelopeConfig) (*Envelope, error) {
	if cfg.TruncateGap == 0 {
		cfg = DefaultEnvelopeConfig()
	}
	pts := make([]Point, 0, len(ranked))
	for _, r := range ranked {
		if r.Obs.SameDayRereg() {
			pts = append(pts, Point{Rank: r.Rank, Time: r.Obs.ReregTime()})
		}
	}
	if len(pts) == 0 {
		return nil, ErrEmptyEnvelope
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].Rank < pts[j].Rank })

	// Right-to-left monotone minimum scan.
	kept := make([]Point, 0, len(pts))
	minSoFar := time.Time{}
	for i := len(pts) - 1; i >= 0; i-- {
		if minSoFar.IsZero() || !pts[i].Time.After(minSoFar) {
			kept = append(kept, pts[i])
			minSoFar = pts[i].Time
		}
	}
	// Reverse into rank order.
	for i, j := 0, len(kept)-1; i < j; i, j = i+1, j-1 {
		kept[i], kept[j] = kept[j], kept[i]
	}

	// Truncate tail outliers: drop trailing points while the gap between the
	// last two points exceeds TruncateGap.
	for len(kept) >= 2 {
		last, prev := kept[len(kept)-1], kept[len(kept)-2]
		if last.Time.Sub(prev.Time) > cfg.TruncateGap {
			kept = kept[:len(kept)-1]
			continue
		}
		break
	}
	return &Envelope{points: kept, cfg: cfg}, nil
}

// Points returns the curve (copies), in rank order.
func (e *Envelope) Points() []Point { return append([]Point(nil), e.points...) }

// Len returns the number of points on the curve. The paper reports a median
// of 7.6 k points per day at full scale.
func (e *Envelope) Len() int { return len(e.points) }

// Start returns the first (lowest-rank) point's time.
func (e *Envelope) Start() time.Time { return e.points[0].Time }

// End returns the last (highest-rank) point's time — the estimated end of
// the day's Drop.
func (e *Envelope) End() time.Time { return e.points[len(e.points)-1].Time }

// EarliestAt infers the earliest possible re-registration time for a rank.
// Ranks on the curve return the observed time (MethodExact); ranks between
// two curve points are linearly interpolated and rounded to the nearest
// second, consistent with the RDAP timestamp precision; ranks outside the
// curve's range are clamped to its first or last time.
func (e *Envelope) EarliestAt(rank int) (time.Time, Method) {
	pts := e.points
	i := sort.Search(len(pts), func(i int) bool { return pts[i].Rank >= rank })
	if i < len(pts) && pts[i].Rank == rank {
		return pts[i].Time, MethodExact
	}
	if i == 0 {
		return pts[0].Time, MethodClampedLow
	}
	if i == len(pts) {
		return pts[len(pts)-1].Time, MethodClampedHigh
	}
	lo, hi := pts[i-1], pts[i]
	span := hi.Time.Sub(lo.Time).Seconds()
	frac := float64(rank-lo.Rank) / float64(hi.Rank-lo.Rank)
	off := time.Duration(math.Round(span*frac)) * time.Second
	return lo.Time.Add(off), MethodInterpolated
}

// GapStats summarises the spacing of consecutive envelope points. The paper
// reports 99 % of gaps at 3 s or less, with a maximum of 38 s.
type GapStats struct {
	Points int
	MaxGap time.Duration
	P99Gap time.Duration
	P50Gap time.Duration
}

// Gaps computes the spacing statistics of the curve.
func (e *Envelope) Gaps() GapStats {
	st := GapStats{Points: len(e.points)}
	if len(e.points) < 2 {
		return st
	}
	gaps := make([]time.Duration, 0, len(e.points)-1)
	for i := 1; i < len(e.points); i++ {
		gaps = append(gaps, e.points[i].Time.Sub(e.points[i-1].Time))
	}
	sort.Slice(gaps, func(i, j int) bool { return gaps[i] < gaps[j] })
	st.MaxGap = gaps[len(gaps)-1]
	st.P99Gap = gaps[(len(gaps)-1)*99/100]
	st.P50Gap = gaps[(len(gaps)-1)/2]
	return st
}

// EnvelopeRegistrars returns, for each curve point, the IANA ID of the
// registrar that made the re-registration; Figure 7's sanity check that
// nearly all curve points come from drop-catch services uses this.
func EnvelopeRegistrars(ranked []Ranked, env *Envelope) map[int]int {
	byRank := make(map[int]*model.Observation, len(ranked))
	for _, r := range ranked {
		byRank[r.Rank] = r.Obs
	}
	counts := make(map[int]int)
	for _, p := range env.points {
		if o := byRank[p.Rank]; o != nil && o.Reregistered() {
			counts[o.ReregRegistrar()]++
		}
	}
	return counts
}
