package loadgen

import "time"

// DropCatchSchedule generates the arrival pattern real drop-catch clients
// use around a deletion instant (the behaviour the paper's registrar study
// measures): open fire slightly *before* the expected drop, hammer at
// a fast fixed interval through the contested window, then back off
// exponentially for the long tail in case the drop is late.
type DropCatchSchedule struct {
	// Lead is how long before the drop instant the first attempt fires.
	// Clients shoot early because registry deletion timing jitters; an early
	// create costs one rate-limit token, a late one costs the name.
	Lead time.Duration
	// FastInterval is the spacing of the fast-retry burst (and the base for
	// the backoff phase). Defaults to 100ms when zero — the cadence observed
	// from commercial drop-catch clients.
	FastInterval time.Duration
	// FastRetries is the number of fixed-interval attempts after the first
	// before backoff begins.
	FastRetries int
	// BackoffFactor multiplies the interval each attempt once the fast burst
	// is spent. Values below 1.5 are clamped to 1.5 so the schedule always
	// terminates quickly; 2 is typical.
	BackoffFactor float64
	// Horizon is how long past the drop instant attempts continue. The tail
	// exists because a registry may process its deletion batch minutes or
	// hours late.
	Horizon time.Duration
}

// Aggressiveness summarises a schedule as attempts per contested second —
// the knob the re-registration-delay CDF is swept against. It is the
// fast-phase rate: attempts per FastInterval.
func (s DropCatchSchedule) Aggressiveness() float64 {
	fi := s.FastInterval
	if fi <= 0 {
		fi = 100 * time.Millisecond
	}
	return float64(time.Second) / float64(fi)
}

// Offsets expands the schedule into arrival offsets (relative to run start)
// for a name expected to drop at the given offset. The result is ascending
// and always non-empty: first attempt at drop-Lead (clamped to zero), then
// FastRetries attempts every FastInterval, then exponentially spaced
// attempts until the first one past drop+Horizon.
func (s DropCatchSchedule) Offsets(drop time.Duration) []time.Duration {
	fast := s.FastInterval
	if fast <= 0 {
		fast = 100 * time.Millisecond
	}
	factor := s.BackoffFactor
	if factor < 1.5 {
		factor = 1.5
	}
	limit := drop + s.Horizon

	t := drop - s.Lead
	if t < 0 {
		t = 0
	}
	out := []time.Duration{t}
	for i := 0; i < s.FastRetries; i++ {
		t += fast
		if t > limit {
			return out
		}
		out = append(out, t)
	}
	interval := fast
	for {
		interval = time.Duration(float64(interval) * factor)
		t += interval
		if t > limit {
			return out
		}
		out = append(out, t)
	}
}
