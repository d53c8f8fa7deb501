// Package zone defines the federation unit of the registry: a zone bundles a
// set of TLDs, the post-expiration lifecycle those TLDs follow, the policy
// that releases their deleted names (paced, instant, or randomized), and the
// registrar market that competes over them. One registry.Store hosts many
// zones — one process, one journal, one replication stream — with each zone
// ticking and dropping on its own clock.
//
// The paper measures .com/.net, whose Drop is paced in interleaved registrar
// batches starting at 19:00 UTC; other registries (the .se/.nu shape) release
// everything at one instant, a fundamentally different contention profile.
// Encoding the difference as a DropPolicy lets both — plus countermeasure
// scenarios like randomized release order — run side by side in one registry.
package zone

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"dropzero/internal/model"
	"dropzero/internal/names"
)

// PolicyKind names a DropPolicy implementation. The string values are part
// of the WAL and snapshot formats (MutAddZone records carry them): never
// rename, only add.
type PolicyKind string

const (
	// PolicyPaced is the .com/.net shape: deletions paced over roughly an
	// hour in (lastUpdated, domainID) order with jitter and stalls.
	PolicyPaced PolicyKind = "paced"
	// PolicyInstant is the .se/.nu shape: every queued name becomes
	// available at the same instant.
	PolicyInstant PolicyKind = "instant"
	// PolicyRandom is the countermeasure scenario: the queue order is
	// shuffled per drop (keyed, deterministic), defeating rank prediction.
	PolicyRandom PolicyKind = "random"
)

// Valid reports whether k names a known policy.
func (k PolicyKind) Valid() bool {
	switch k {
	case PolicyPaced, PolicyInstant, PolicyRandom:
		return true
	}
	return false
}

// Config describes one zone. The zero value is not a valid zone; start from
// Default or fill every field.
type Config struct {
	// Name identifies the zone (journal records and serving surfaces key by
	// it). Lowercase, no whitespace.
	Name string
	// TLDs is the set of top-level domains the zone operates. A TLD belongs
	// to exactly one zone per store.
	TLDs []model.TLD
	// Lifecycle is the post-expiration pipeline for the zone's TLDs.
	Lifecycle LifecycleConfig
	// Drop paces the zone's deletion process (start instant, rates, stalls).
	Drop DropConfig
	// Policy selects how queued deletions are released.
	Policy PolicyKind
	// Salt keys the randomized-order shuffle so distinct zones (or runs)
	// shuffle differently. Ignored by the other policies.
	Salt uint64
}

// Default returns the zone every store hosts from construction: .com/.net
// under ICANN-policy lifecycle defaults and the paper's 19:00 UTC paced
// Drop. It is zone 0 of every store: implicit, never journaled, and the
// zone registry.NewDropRunner and registry.NewLifecycle drive.
func Default() Config {
	return Config{
		Name:      "core",
		TLDs:      []model.TLD{model.COM, model.NET},
		Lifecycle: DefaultLifecycleConfig(),
		Drop:      DefaultDropConfig(),
		Policy:    PolicyPaced,
	}
}

// Validate checks structural invariants: a name, at least one TLD, no
// duplicate TLDs, a known policy, and lifecycle and drop values some Drop
// and lifecycle can run. A zone decoded from a WAL record, a snapshot or a
// replication stream is whatever its bytes say, so every number is checked.
func (c *Config) Validate() error {
	if c.Name == "" || strings.ContainsAny(c.Name, " \t\n") {
		return fmt.Errorf("zone: bad name %q", c.Name)
	}
	if len(c.TLDs) == 0 {
		return fmt.Errorf("zone %s: no TLDs", c.Name)
	}
	seen := make(map[model.TLD]bool, len(c.TLDs))
	for _, t := range c.TLDs {
		if names.Validate(string(t)) != nil {
			return fmt.Errorf("zone %s: bad TLD %q", c.Name, t)
		}
		if seen[t] {
			return fmt.Errorf("zone %s: duplicate TLD %q", c.Name, t)
		}
		seen[t] = true
	}
	if !c.Policy.Valid() {
		return fmt.Errorf("zone %s: unknown policy %q", c.Name, c.Policy)
	}
	lc, dc := &c.Lifecycle, &c.Drop
	lengths := []int{lc.RedemptionDays, lc.PendingDeleteDays, lc.DefaultGraceDays}
	for _, g := range lc.GraceDays {
		lengths = append(lengths, g)
	}
	for _, n := range lengths {
		if n < 0 || n > math.MaxUint16 { // the span of a stored day (simtime.Day.Pack)
			return fmt.Errorf("zone %s: lifecycle length of %d days is outside [0, %d]", c.Name, n, math.MaxUint16)
		}
	}
	// A zero rate means the default Drop (NewZoneDropRunner), or none for an
	// instant release; a positive one below one name a day would step
	// Schedule through days of seconds per name. A NaN fails every bound.
	if !timeOfDay(lc.BatchHour, lc.BatchMinute) || !timeOfDay(dc.StartHour, dc.StartMinute) || dc.StallSeconds < 0 ||
		!(dc.BaseRatePerSec == 0 || dc.BaseRatePerSec >= 1.0/86400 && dc.BaseRatePerSec <= math.MaxFloat64) ||
		!(dc.RateJitter >= 0 && dc.RateJitter < 1) || !(dc.DayRateSpread >= 0 && dc.DayRateSpread < 1) ||
		!(dc.StallProb >= 0 && dc.StallProb <= 1) {
		return fmt.Errorf("zone %s: batch time %d:%d or drop config %+v out of range", c.Name, lc.BatchHour, lc.BatchMinute, *dc)
	}
	return nil
}

// timeOfDay reports whether h:m is a time of day.
func timeOfDay(h, m int) bool { return h >= 0 && h < 24 && m >= 0 && m < 60 }

// TLDSet returns the zone's TLDs as a membership set.
func (c *Config) TLDSet() map[model.TLD]bool {
	m := make(map[model.TLD]bool, len(c.TLDs))
	for _, t := range c.TLDs {
		m[t] = true
	}
	return m
}

// ParseSpec parses the compact command-line zone syntax:
//
//	name=tld[+tld...]:policy[@HH:MM]
//
// for example "nordic=se+nu:instant@04:00". Omitted @HH:MM keeps the policy
// default start (19:00 for paced/random, 04:00 for instant). Lifecycle and
// pacing parameters take the defaults; callers needing full control build a
// Config directly.
func ParseSpec(spec string) (Config, error) {
	c := Config{Lifecycle: DefaultLifecycleConfig(), Drop: DefaultDropConfig()}
	name, rest, ok := strings.Cut(spec, "=")
	if !ok || name == "" {
		return c, fmt.Errorf("zone: spec %q: want name=tlds:policy", spec)
	}
	c.Name = name
	tlds, polSpec, ok := strings.Cut(rest, ":")
	if !ok {
		return c, fmt.Errorf("zone: spec %q: missing policy", spec)
	}
	for _, t := range strings.Split(tlds, "+") {
		c.TLDs = append(c.TLDs, model.TLD(strings.ToLower(strings.TrimSpace(t))))
	}
	pol, at, hasAt := strings.Cut(polSpec, "@")
	c.Policy = PolicyKind(pol)
	if c.Policy == PolicyInstant {
		c.Drop.StartHour, c.Drop.StartMinute = 4, 0
	}
	if hasAt {
		hh, mm, ok := strings.Cut(at, ":")
		h, err1 := strconv.Atoi(hh)
		m, err2 := strconv.Atoi(mm)
		if !ok || err1 != nil || err2 != nil || !timeOfDay(h, m) {
			return c, fmt.Errorf("zone: spec %q: bad start time %q", spec, at)
		}
		c.Drop.StartHour, c.Drop.StartMinute = h, m
	}
	// Derive a per-zone shuffle salt from the name so two randomized zones
	// in one store do not share an order.
	for i := 0; i < len(c.Name); i++ {
		c.Salt = c.Salt*131 + uint64(c.Name[i])
	}
	return c, c.Validate()
}

// ParseSpecs parses a semicolon-separated list of zone specs.
func ParseSpecs(specs string) ([]Config, error) {
	var out []Config
	for _, s := range strings.Split(specs, ";") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		c, err := ParseSpec(s)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}
