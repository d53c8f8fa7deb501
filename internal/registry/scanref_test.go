// Full-scan reference engine. These are the pre-index implementations of
// the three daily sweeps — Lifecycle.Tick, DropRunner.BuildQueue and
// Store.PendingDeletions — retained verbatim (clone-per-candidate cost
// profile included) as the behavioural oracle for the differential tests
// and the baseline for BenchmarkDailySweep, which call them directly: no
// production path reaches them. They read the same store the due-day
// indexes are maintained on, so the two engines must agree byte-for-byte on
// any store and any seed.

package registry

import (
	"cmp"
	"slices"
	"strings"
	"time"

	"dropzero/internal/model"
	"dropzero/internal/simtime"
)

// tickScan is the full-scan Lifecycle.Tick: every live registration is
// cloned and examined once per call, due or not.
func (l *Lifecycle) tickScan(now time.Time) int {
	now = simtime.Trunc(now)
	day := simtime.DayOf(now)

	type change struct {
		d  *model.Domain
		fn func() error
	}
	var changes []change

	l.store.Each(func(d *model.Domain) bool {
		if !l.inScope(d.TLD) {
			return true
		}
		switch d.Status {
		case model.StatusActive:
			if !d.Expiry.After(now) {
				changes = append(changes, change{d, func() error {
					// Registry auto-renews at expiration; the registrar's
					// grace clock starts at the old expiry.
					return l.store.setState(d.Name, model.StatusAutoRenew, d.Expiry, simtime.Day{})
				}})
			}
		case model.StatusAutoRenew:
			graceEnd := d.Expiry.AddDate(0, 0, l.cfg.GraceDaysFor(d.RegistrarID))
			if !graceEnd.After(now) {
				batch := l.cfg.BatchInstant(day, d.RegistrarID)
				changes = append(changes, change{d, func() error {
					// Registrar deletes the domain: this is the "last
					// updated" instant that will drive the deletion order.
					return l.store.setState(d.Name, model.StatusRedemption, batch, simtime.Day{})
				}})
			}
		case model.StatusRedemption:
			redemptionEnd := d.Updated.AddDate(0, 0, l.cfg.RedemptionDays)
			if !redemptionEnd.After(now) {
				deleteDay := day.AddDays(l.cfg.PendingDeleteDays)
				changes = append(changes, change{d, func() error {
					return l.store.MarkPendingDelete(d.Name, time.Time{}, deleteDay)
				}})
			}
		}
		return true
	})

	slices.SortFunc(changes, func(a, b change) int { return cmp.Compare(a.d.ID, b.d.ID) })
	n := 0
	for _, c := range changes {
		if err := c.fn(); err == nil {
			n++
		}
	}
	return n
}

// buildQueueScan is the full-scan DropRunner.BuildQueue: one pass over the
// whole store, cloning every domain, filtering on (status, DeleteDay).
func (r *DropRunner) buildQueueScan(day simtime.Day) []QueueEntry {
	var q []QueueEntry
	r.store.Each(func(d *model.Domain) bool {
		if !r.inScope(d.TLD) {
			return true
		}
		if d.Status == model.StatusPendingDelete && d.DeleteDay == day {
			q = append(q, QueueEntry{Name: d.Name, TLD: d.TLD, ID: d.ID, Updated: d.Updated})
		}
		return true
	})
	slices.SortFunc(q, func(a, b QueueEntry) int {
		if c := a.Updated.Compare(b.Updated); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
	return q
}

// pendingDeletionsScan is the full-scan Store.PendingDeletions: clone and
// filter everything, then sort the survivors.
func (s *Store) pendingDeletionsScan(from simtime.Day, days int) []Pending {
	end := from.AddDays(days)
	out := make([]Pending, 0, 1024)
	s.each(func(r *record) bool {
		if r.status() != model.StatusPendingDelete {
			return true
		}
		d := r.domain()
		if d.DeleteDay.Before(from) || !d.DeleteDay.Before(end) {
			return true
		}
		out = append(out, Pending{Name: d.Name, day: r.deleteDay})
		return true
	})
	slices.SortFunc(out, func(a, b Pending) int {
		if a.DeleteDay() != b.DeleteDay() {
			if a.DeleteDay().Before(b.DeleteDay()) {
				return -1
			}
			return 1
		}
		return strings.Compare(a.Name, b.Name)
	})
	return out
}
