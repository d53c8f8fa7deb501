// Package core implements the paper's analytical contribution: inferring the
// order in which .com domains are deleted during the Drop (§4.1), modelling
// the earliest possible re-registration instant of every domain with a
// per-day minimum-envelope curve (§4.2), computing re-registration delays
// and classifying drop-catch behaviour (§4.3), and slicing the results into
// adaptive delay intervals for market-share analysis (§4.4).
//
// The package is deliberately independent of the simulator: it consumes only
// model.Observation values — the information the measurement pipeline can
// collect from public pending-delete lists and RDAP/WHOIS lookups.
package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"dropzero/internal/model"
	"dropzero/internal/simtime"
)

// Ordering is a candidate deletion-order key. The paper tests several and
// finds that only last-updated time (with domain ID as tie breaker) produces
// the expected diagonal.
type Ordering int

// Candidate orderings from §4.1.
const (
	// OrderLastUpdate sorts by the prior registration's last-updated
	// timestamp, ties broken by domain ID — the inferred true order.
	OrderLastUpdate Ordering = iota
	// OrderListOrder keeps the pending-delete list order (alphabetical by
	// name, per the dropscope publisher) — the paper's Figure 3 (top).
	OrderListOrder
	// OrderDomainID sorts by registry object ID.
	OrderDomainID
	// OrderRegistrarID sorts by sponsoring registrar, ties by domain ID.
	OrderRegistrarID
	// OrderCreation sorts by the prior registration's creation time.
	OrderCreation
	// OrderExpiry sorts by the prior registration's expiration time.
	OrderExpiry
	// OrderAlphabetical sorts by domain name.
	OrderAlphabetical
	// OrderLastUpdateCreated is the §4.1 alternative tie-breaker: last
	// updated, ties broken by creation timestamp (then ID, since creation
	// timestamps alone do not induce a total order). The paper notes it
	// "appears to work well" and opts for domain IDs.
	OrderLastUpdateCreated
	numOrderings
)

// Orderings lists every candidate, in the order the paper discusses them.
func Orderings() []Ordering {
	out := make([]Ordering, numOrderings)
	for i := range out {
		out[i] = Ordering(i)
	}
	return out
}

// String names the ordering.
func (o Ordering) String() string {
	switch o {
	case OrderLastUpdate:
		return "last-update+id"
	case OrderListOrder:
		return "pending-list order"
	case OrderDomainID:
		return "domain id"
	case OrderRegistrarID:
		return "registrar id"
	case OrderCreation:
		return "creation date"
	case OrderExpiry:
		return "expiration date"
	case OrderAlphabetical:
		return "alphabetical"
	case OrderLastUpdateCreated:
		return "last-update+created"
	default:
		return fmt.Sprintf("Ordering(%d)", int(o))
	}
}

// compare orders a and b under o: negative when a comes first, positive when
// b does, zero for a tie (which a stable sort leaves in dataset order).
func (o Ordering) compare(a, b *model.Observation) int {
	byID := cmp.Compare(a.PriorID(), b.PriorID())
	switch o {
	case OrderLastUpdate:
		return cmp.Or(a.PriorUpdated().Compare(b.PriorUpdated()), byID)
	case OrderLastUpdateCreated:
		return cmp.Or(a.PriorUpdated().Compare(b.PriorUpdated()), a.PriorCreated().Compare(b.PriorCreated()), byID)
	case OrderListOrder, OrderAlphabetical:
		return strings.Compare(a.Name, b.Name)
	case OrderRegistrarID:
		return cmp.Or(cmp.Compare(a.PriorRegistrar(), b.PriorRegistrar()), byID)
	case OrderCreation:
		return cmp.Or(a.PriorCreated().Compare(b.PriorCreated()), byID)
	case OrderExpiry:
		return cmp.Or(a.PriorExpiry().Compare(b.PriorExpiry()), byID)
	default: // OrderDomainID
		return byID
	}
}

// Ranked pairs an observation with its 0-based rank under some ordering.
// Obs points into the dataset slice the ranking was built from; the row is
// not copied.
type Ranked struct {
	Obs  *model.Observation
	Rank int
}

// Rank sorts one deletion day's observations under ord and assigns ranks.
// The input slice is not modified; the result points into it.
func Rank(obs []model.Observation, ord Ordering) []Ranked {
	out := refs(obs)
	slices.SortStableFunc(out, func(a, b Ranked) int { return ord.compare(a.Obs, b.Obs) })
	for i := range out {
		out[i].Rank = i
	}
	return out
}

// refs is one unranked Ranked per row of obs, in dataset order.
func refs(obs []model.Observation) []Ranked {
	out := make([]Ranked, len(obs))
	for i := range obs {
		out[i].Obs = &obs[i]
	}
	return out
}

// OrderScore measures how well an ordering explains the same-day
// re-registration times, as the Spearman rank correlation between deletion
// rank and re-registration time over all same-day re-registrations. The true
// deletion order produces a strong positive correlation (most domains are
// caught in deletion order); unrelated orderings score near zero.
func OrderScore(ranked []Ranked) float64 {
	type pt struct {
		rank int
		t    int64
	}
	var pts []pt
	for _, r := range ranked {
		if r.Obs.SameDayRereg() {
			pts = append(pts, pt{r.Rank, r.Obs.ReregTime().Unix()})
		}
	}
	if len(pts) < 2 {
		return 0
	}
	// Rank the re-registration times (average ranks for ties).
	byTime := make([]int, len(pts))
	for i := range byTime {
		byTime[i] = i
	}
	sort.Slice(byTime, func(i, j int) bool { return pts[byTime[i]].t < pts[byTime[j]].t })
	timeRank := make([]float64, len(pts))
	for i := 0; i < len(byTime); {
		j := i
		for j < len(byTime) && pts[byTime[j]].t == pts[byTime[i]].t {
			j++
		}
		avg := float64(i+j-1) / 2
		for k := i; k < j; k++ {
			timeRank[byTime[k]] = avg
		}
		i = j
	}
	// The deletion ranks of the same-day subset are distinct; rank them by
	// position after sorting.
	byRank := make([]int, len(pts))
	for i := range byRank {
		byRank[i] = i
	}
	sort.Slice(byRank, func(i, j int) bool { return pts[byRank[i]].rank < pts[byRank[j]].rank })
	rankRank := make([]float64, len(pts))
	for i, idx := range byRank {
		rankRank[idx] = float64(i)
	}
	return Pearson(rankRank, timeRank)
}

// Pearson is the sample correlation coefficient of x and y: 0 when they
// differ in length, hold fewer than two points, or either is constant.
func Pearson(x, y []float64) float64 {
	if len(x) != len(y) || len(x) < 2 {
		return 0
	}
	n := float64(len(x))
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/n, sy/n
	var cov, vx, vy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}

// OrderSearchResult scores one candidate ordering.
type OrderSearchResult struct {
	Ordering Ordering
	Score    float64
}

// SearchOrderings ranks every candidate ordering by OrderScore, best first.
// This is the §4.1 analysis that rules out domain ID, registrar ID, creation
// date, expiration date, list order and alphabetical order.
func SearchOrderings(obs []model.Observation) []OrderSearchResult {
	results := make([]OrderSearchResult, 0, numOrderings)
	for _, ord := range Orderings() {
		results = append(results, OrderSearchResult{
			Ordering: ord,
			Score:    OrderScore(Rank(obs, ord)),
		})
	}
	sort.Slice(results, func(i, j int) bool { return results[i].Score > results[j].Score })
	return results
}

// GroupByDay splits a dataset into per-deletion-day groups in chronological
// order, each ranked under ord exactly as Rank would rank that day's rows
// alone. One ranking is built for the whole dataset and cut at the day
// boundaries: the groups share one backing array and point into obs, which
// is not modified.
func GroupByDay(obs []model.Observation, ord Ordering) []DayGroup {
	all := refs(obs)
	// A row unpacks its delete day into a calendar date on every call: once
	// per row here, into the Rank the loop below overwrites, not once per
	// comparison.
	for i := range all {
		all[i].Rank = int(all[i].Obs.DeleteDay().Number())
	}
	slices.SortStableFunc(all, func(a, b Ranked) int {
		if a.Rank != b.Rank {
			return a.Rank - b.Rank
		}
		return ord.compare(a.Obs, b.Obs)
	})
	var out []DayGroup
	for i := 0; i < len(all); {
		day, j := all[i].Rank, i
		for ; j < len(all) && all[j].Rank == day; j++ {
			all[j].Rank = j - i
		}
		out = append(out, DayGroup{Day: all[i].Obs.DeleteDay(), Ranked: all[i:j:j]})
		i = j
	}
	return out
}

// DayGroup is one deletion day's observations in rank order.
type DayGroup struct {
	Day    simtime.Day
	Ranked []Ranked
}
