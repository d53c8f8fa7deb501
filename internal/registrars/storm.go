package registrars

import (
	"time"

	"dropzero/internal/loadgen"
)

// StormSpec describes how aggressively one service's drop-catch tooling
// fires during the Drop: its session pool, its retry schedule around each
// expected deletion instant, and whether it respects the registry's
// rate-limit push-back. The calibration follows the paper's cluster
// behaviour: the three big drop-catch services saturate their accreditation
// pools with fast pre-drop retries (their zero-second wins), the
// hybrid/retail registrars fire slower and back off when told to, and the
// long tail barely competes.
type StormSpec struct {
	// Sessions is the service's concurrent EPP connection pool for a storm.
	Sessions int
	// Schedule is the per-name retry plan.
	Schedule loadgen.DropCatchSchedule
	// Compliant services stop hammering a name when rate-limited.
	Compliant bool
	// PerDomainInFlight caps concurrent creates per contested name.
	PerDomainInFlight int
}

// stormSpecs is the per-service calibration. Aggressiveness ranks
// DropCatch > SnapNames > Pheenix > XZ > retail > tail, mirroring the
// accreditation share and delay CDFs the paper reports.
var stormSpecs = map[string]StormSpec{
	SvcDropCatch: {
		Sessions: 16,
		Schedule: loadgen.DropCatchSchedule{
			Lead: 200 * time.Millisecond, FastInterval: 50 * time.Millisecond,
			FastRetries: 60, BackoffFactor: 2, Horizon: 30 * time.Second,
		},
		Compliant: false, PerDomainInFlight: 4,
	},
	SvcSnapNames: {
		Sessions: 12,
		Schedule: loadgen.DropCatchSchedule{
			Lead: 150 * time.Millisecond, FastInterval: 75 * time.Millisecond,
			FastRetries: 40, BackoffFactor: 2, Horizon: 30 * time.Second,
		},
		Compliant: false, PerDomainInFlight: 3,
	},
	SvcPheenix: {
		Sessions: 8,
		Schedule: loadgen.DropCatchSchedule{
			Lead: 100 * time.Millisecond, FastInterval: 100 * time.Millisecond,
			FastRetries: 30, BackoffFactor: 2, Horizon: 30 * time.Second,
		},
		Compliant: false, PerDomainInFlight: 2,
	},
	SvcXZ: {
		Sessions: 6,
		Schedule: loadgen.DropCatchSchedule{
			Lead: 100 * time.Millisecond, FastInterval: 150 * time.Millisecond,
			FastRetries: 20, BackoffFactor: 2, Horizon: 30 * time.Second,
		},
		Compliant: true, PerDomainInFlight: 2,
	},
	SvcDynadot: {
		Sessions: 2,
		Schedule: loadgen.DropCatchSchedule{
			FastInterval: 250 * time.Millisecond, FastRetries: 10,
			BackoffFactor: 2, Horizon: time.Minute,
		},
		Compliant: true, PerDomainInFlight: 1,
	},
	SvcGoDaddy: {
		Sessions: 3,
		Schedule: loadgen.DropCatchSchedule{
			FastInterval: 250 * time.Millisecond, FastRetries: 10,
			BackoffFactor: 2, Horizon: time.Minute,
		},
		Compliant: true, PerDomainInFlight: 1,
	},
	SvcXinnet: {
		Sessions: 2,
		Schedule: loadgen.DropCatchSchedule{
			FastInterval: 500 * time.Millisecond, FastRetries: 6,
			BackoffFactor: 2, Horizon: time.Minute,
		},
		Compliant: true, PerDomainInFlight: 1,
	},
	Svc1API: {
		Sessions: 2,
		Schedule: loadgen.DropCatchSchedule{
			FastInterval: 200 * time.Millisecond, FastRetries: 15,
			BackoffFactor: 2, Horizon: time.Minute,
		},
		Compliant: true, PerDomainInFlight: 1,
	},
	SvcOther: {
		Sessions: 1,
		Schedule: loadgen.DropCatchSchedule{
			FastInterval: time.Second, FastRetries: 3,
			BackoffFactor: 2, Horizon: 2 * time.Minute,
		},
		Compliant: true, PerDomainInFlight: 1,
	},
}

// StormSpecOf returns the service's storm calibration; unknown services get
// the long-tail behaviour.
func StormSpecOf(service string) StormSpec {
	if s, ok := stormSpecs[service]; ok {
		return s
	}
	return stormSpecs[SvcOther]
}
