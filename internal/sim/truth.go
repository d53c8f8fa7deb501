package sim

import (
	"fmt"
	"math"
	"time"

	"dropzero/internal/registrars"
)

// Truth is the simulator's ground truth for one deletion, used only by the
// inference-accuracy ablations and calibration tests. It carries no name and
// no instant of its own: Result.Truths[d][k] describes Result.Deletions[d][k],
// whose Name and Time they are.
//
// A study holds one per deleted name, so it is a packed value without a
// pointer word (16 bytes): the market's claim is folded in as the
// accreditation and the delay in whole seconds — every delay the market draws
// is one — and the zero registrar stands for "left unregistered". The
// claiming service is not stored: it is Result.Directory.ServiceOf of the
// registrar.
type Truth struct {
	Value     float64
	delay     uint32
	registrar uint16
	age       uint8
}

// newTruth packs the truth of name's deletion; claim is nil when the market
// left the name unregistered. What the value cannot hold exactly — an age
// outside 0 … 255, a registrar outside 1 … 65 535, a delay that is negative,
// has a sub-second part or is 2³² s or more — is an error.
func newTruth(name string, value float64, ageYears int, claim *registrars.Claim) (Truth, error) {
	if ageYears < 0 || ageYears > math.MaxUint8 {
		return Truth{}, fmt.Errorf("sim: truth of %s: age of %d years not representable", name, ageYears)
	}
	t := Truth{Value: value, age: uint8(ageYears)}
	if claim == nil {
		return t, nil
	}
	if claim.RegistrarID < 1 || claim.RegistrarID > math.MaxUint16 {
		return Truth{}, fmt.Errorf("sim: truth of %s: claiming registrar ID %d not representable", name, claim.RegistrarID)
	}
	secs := claim.Delay / time.Second
	if claim.Delay < 0 || claim.Delay%time.Second != 0 || secs > math.MaxUint32 {
		return Truth{}, fmt.Errorf("sim: truth of %s: claim delay %v not representable", name, claim.Delay)
	}
	t.registrar, t.delay = uint16(claim.RegistrarID), uint32(secs)
	return t, nil
}

// AgeYears is the prior registration's age in whole years.
func (t Truth) AgeYears() int { return int(t.age) }

// Claim is the market's decision: the accreditation that re-registers the
// name and how long after the deletion instant. ok is false when the market
// left the name unregistered.
func (t Truth) Claim() (registrar int, delay time.Duration, ok bool) {
	return int(t.registrar), time.Duration(t.delay) * time.Second, t.registrar != 0
}
