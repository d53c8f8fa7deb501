package analysis

import (
	"sort"
	"time"

	"dropzero/internal/core"
	"dropzero/internal/model"
	"dropzero/internal/simtime"
)

// Fig1Row is one day of Figure 1: expired .com domains deleted per day
// according to the pending-delete lists.
type Fig1Row struct {
	Day     simtime.Day
	Deleted int
}

// Fig1 counts the study population per deletion day.
func (a *Analysis) Fig1() []Fig1Row {
	counts := make(map[simtime.Day]int)
	for i := range a.in.Observations {
		counts[a.in.Observations[i].DeleteDay()]++
	}
	days := make([]simtime.Day, 0, len(counts))
	for d := range counts {
		days = append(days, d)
	}
	sort.Slice(days, func(i, j int) bool { return days[i].Before(days[j]) })
	out := make([]Fig1Row, 0, len(days))
	for _, d := range days {
		out = append(out, Fig1Row{Day: d, Deleted: counts[d]})
	}
	return out
}

// Fig1Stats summarises Figure 1.
type Fig1Stats struct {
	Days        int
	MinDeleted  int
	MaxDeleted  int
	MeanDeleted float64
	Total       int
}

// Fig1Summary computes the headline numbers (the paper: 66 k–112 k per day,
// 4.6 M total, before scaling).
func Fig1Summary(rows []Fig1Row) Fig1Stats {
	st := Fig1Stats{Days: len(rows)}
	if len(rows) == 0 {
		return st
	}
	st.MinDeleted = rows[0].Deleted
	for _, r := range rows {
		st.Total += r.Deleted
		if r.Deleted < st.MinDeleted {
			st.MinDeleted = r.Deleted
		}
		if r.Deleted > st.MaxDeleted {
			st.MaxDeleted = r.Deleted
		}
	}
	st.MeanDeleted = float64(st.Total) / float64(len(rows))
	return st
}

// Fig2 is the deletion-day re-registration timeline: per-minute mean rates
// and the cumulative share of deleted domains re-registered by each minute
// of the day (aggregated across all study days).
type Fig2 struct {
	// PerMinute[m] is the mean number of re-registrations in minute-of-day
	// m across days.
	PerMinute []float64
	// CumulativePct[m] is the share of all deleted domains re-registered on
	// their deletion day up to and including minute m, in percent.
	CumulativePct []float64
	Stats         Fig2Stats
}

// Fig2Stats carries the §4 narrative numbers.
type Fig2Stats struct {
	// FirstRereg is the earliest minute-of-day with any same-day
	// re-registration (the paper: nothing before 19:00 UTC).
	FirstRereg int
	// PctBy20h is the share of deleted domains re-registered by 20:00 (the
	// paper: ≈9.4 %).
	PctBy20h float64
	// PctSameDay is the share re-registered by midnight (the paper: 11.2 %).
	PctSameDay float64
	// ShareOfSameDayIn19h is the fraction of same-day re-registrations that
	// happened between 19:00 and 20:00 (the paper: 84 %).
	ShareOfSameDayIn19h float64
	// PeakPerMinute is the maximum mean per-minute rate (the paper: >100 at
	// full scale).
	PeakPerMinute float64
	// RateAt21h is the mean per-minute rate at 21:00 (the paper: ≈3).
	RateAt21h float64
}

// Fig2Timeline builds Figure 2.
func (a *Analysis) Fig2Timeline() Fig2 {
	const minutes = 24 * 60
	total := 0
	days := make(map[simtime.Day]bool)
	counts := make([]int, minutes)
	sameDay := 0
	in19h := 0
	for i := range a.in.Observations {
		o := &a.in.Observations[i]
		total++
		days[o.DeleteDay()] = true
		if !o.SameDayRereg() {
			continue
		}
		sameDay++
		t := o.ReregTime()
		m := t.Hour()*60 + t.Minute()
		counts[m]++
		if t.Hour() == 19 {
			in19h++
		}
	}
	f := Fig2{
		PerMinute:     make([]float64, minutes),
		CumulativePct: make([]float64, minutes),
	}
	nDays := len(days)
	if nDays == 0 || total == 0 {
		return f
	}
	cum := 0
	first := -1
	for m := 0; m < minutes; m++ {
		f.PerMinute[m] = float64(counts[m]) / float64(nDays)
		cum += counts[m]
		f.CumulativePct[m] = 100 * float64(cum) / float64(total)
		if first < 0 && counts[m] > 0 {
			first = m
		}
		if f.PerMinute[m] > f.Stats.PeakPerMinute {
			f.Stats.PeakPerMinute = f.PerMinute[m]
		}
	}
	f.Stats.FirstRereg = first
	f.Stats.PctBy20h = f.CumulativePct[20*60-1]
	f.Stats.PctSameDay = f.CumulativePct[minutes-1]
	if sameDay > 0 {
		f.Stats.ShareOfSameDayIn19h = float64(in19h) / float64(sameDay)
	}
	f.Stats.RateAt21h = f.PerMinute[21*60]
	return f
}

// Fig3 compares the pending-list order against the inferred deletion order
// for one day, with the minimum envelope under the correct order.
type Fig3 struct {
	Day simtime.Day
	// ListOrder and UpdateOrder are the same-day re-registrations as
	// (rank, time) points under the two orderings.
	ListOrder   []core.Point
	UpdateOrder []core.Point
	// Envelope is the curve under the update order.
	Envelope []core.Point
	// ListOrderScore and UpdateOrderScore are the rank/time Spearman
	// correlations (the update order should be near 1, list order near 0).
	ListOrderScore   float64
	UpdateOrderScore float64
	// OnDiagonalShare is the fraction of same-day re-registrations whose
	// delay is ≤3 s under the update order (the paper: ≈80 % visually on
	// the diagonal).
	OnDiagonalShare float64
}

// Fig3Orders builds Figure 3 for the given day (the paper uses 2 January
// 2018).
func (a *Analysis) Fig3Orders(day simtime.Day) (*Fig3, error) {
	group := a.dayObservations(day)
	listRanked := core.Rank(group, core.OrderListOrder)
	updRanked := core.Rank(group, core.OrderLastUpdate)
	env, err := core.BuildEnvelope(updRanked, core.DefaultEnvelopeConfig())
	if err != nil {
		return nil, err
	}
	f := &Fig3{
		Day:              day,
		ListOrder:        sameDayPoints(listRanked),
		UpdateOrder:      sameDayPoints(updRanked),
		Envelope:         env.Points(),
		ListOrderScore:   core.OrderScore(listRanked),
		UpdateOrderScore: core.OrderScore(updRanked),
	}
	// Share of same-day points within 3 s of the envelope.
	n, on := 0, 0
	for _, r := range updRanked {
		if !r.Obs.SameDayRereg() {
			continue
		}
		n++
		earliest, _ := env.EarliestAt(r.Rank)
		if r.Obs.ReregTime().Sub(earliest) <= 3*time.Second {
			on++
		}
	}
	if n > 0 {
		f.OnDiagonalShare = float64(on) / float64(n)
	}
	return f, nil
}

// dayObservations copies out one deletion day's rows, in dataset order.
func (a *Analysis) dayObservations(day simtime.Day) []model.Observation {
	var out []model.Observation
	for i := range a.in.Observations {
		if o := &a.in.Observations[i]; o.DeleteDay() == day {
			out = append(out, *o)
		}
	}
	return out
}

func sameDayPoints(ranked []core.Ranked) []core.Point {
	var pts []core.Point
	for _, r := range ranked {
		if r.Obs.SameDayRereg() {
			pts = append(pts, core.Point{Rank: r.Rank, Time: r.Obs.ReregTime()})
		}
	}
	return pts
}
