// Package sim wires the whole ecosystem together and drives it through a
// multi-week measurement study: it seeds the expiring-domain population,
// runs the registry's Drop every day, lets the market of drop-catch
// services, API resellers and retail registrars claim deleted names, and
// runs the paper's measurement pipeline against the registry's public
// surfaces (pending-delete lists, RDAP, WHOIS, the maliciousness oracle).
//
// Every pipeline client is its server's NewBoundClient (rdap, whois,
// dropscope, safebrowsing): a memory-only study opens no socket, yet meets
// the name checks, request counts and status-to-error mappings a remote
// client does. RDAP lookups and pending-delete lists take values, not a
// body the same process would parse back: only HTTP encodes and decodes.
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"dropzero/internal/journal"
	"dropzero/internal/registrars"
	"dropzero/internal/registry"
	"dropzero/internal/safebrowsing"
	"dropzero/internal/simtime"
	"dropzero/internal/zone"
)

// Config parameterises a study. The zero value is not runnable; start from
// DefaultConfig.
type Config struct {
	// Seed drives every stochastic component; equal seeds give equal runs.
	Seed int64
	// StartDay is the first deletion day.
	StartDay simtime.Day
	// Days is the number of deletion days (the paper observed 56).
	Days int
	// Scale multiplies the paper's daily deletion volume (66 k–112 k).
	// 0.1 simulates ~6.6 k–11.2 k deletions/day.
	Scale float64
	// NetShare is the fraction of .net domains interleaved into the
	// registry's combined deletion queue. They are deleted but never looked
	// up (the paper restricted lookups to .com), which bends the measured
	// rank-vs-time curve exactly as §4.1 hypothesises.
	NetShare float64
	// Drop configures the default zone's deletion process (a zero
	// BaseRatePerSec keeps the default Drop).
	Drop registry.DropConfig
	// Market configures re-registration demand.
	Market registrars.MarketConfig
	// Labels configures the synthetic maliciousness model.
	Labels safebrowsing.LabelModel
	// RDAPFailures is the number of prior-registration sponsor registrars
	// whose domains make the RDAP server return HTTP 500, forcing the
	// pipeline onto its WHOIS fallback (the paper's Papaki case).
	RDAPFailures int
	// FinalizeAfterDays is the gap between the last deletion day and the
	// re-registration lookup pass (the paper waited at least 8 weeks).
	FinalizeAfterDays int
	// Parallelism bounds the measurement pipeline's lookup worker pool
	// (0 = GOMAXPROCS, 1 = sequential). Results are deterministic at every
	// setting: equal seeds give byte-identical datasets regardless of how
	// many workers collected them.
	Parallelism int
	// Shards is the registry store's shard count (0 = GOMAXPROCS-derived,
	// 1 = the legacy single-lock store, other values round up to a power of
	// two). Sharding only changes how much lock parallelism concurrent
	// registrars get; a study's output is byte-identical at every setting,
	// and the differential tests assert exactly that.
	Shards int
	// DataDir makes the study durable: registry mutations and the
	// measurement pipeline's daily state go to a write-ahead journal with
	// periodic snapshots in this directory, and a rerun with the same
	// config resumes from whatever the directory holds — mid-seeding,
	// mid-Drop, anywhere — producing byte-identical output to an
	// uninterrupted run. Empty keeps the study memory-only.
	DataDir string
	// Durability is the journal mode when DataDir is set: journal.ModeAsync
	// (group-commit in the background; a crash loses at most the unflushed
	// tail, which resume re-executes) or journal.ModeSync (every mutation
	// fsynced before it is acknowledged). ModeOff with a DataDir disables
	// journaling entirely.
	Durability journal.Mode
	// SnapshotDays writes a full registry+pipeline snapshot every N
	// completed study days, bounding how much WAL a recovery replays
	// (0 = every 7 days).
	SnapshotDays int
	// KeepCheckpoints disables pruning of superseded snapshots and WAL
	// segments. Crash-recovery tests use it to manufacture crashes at
	// arbitrary points of a finished run's history.
	KeepCheckpoints bool
	// Zones federates the study over several zones in the one registry
	// process, beside the default .com/.net zone every study runs. An entry
	// named like the default zone is the default zone — it must not alter
	// it — and every other entry is installed with AddZone. Each zone is
	// seeded with its own expiring population, dropped under its own policy
	// and claimed by its own registrar market, all on its own RNG streams
	// (zoneSeedStride), so extra zones leave the default zone's study
	// untouched.
	Zones []zone.Config
}

// DefaultConfig returns the configuration used by the experiment harness: a
// 56-day study at one tenth of the paper's volume.
func DefaultConfig() Config {
	return Config{
		Seed:              1,
		StartDay:          simtime.Day{Year: 2018, Month: time.January, Dom: 1},
		Days:              56,
		Scale:             0.1,
		NetShare:          0.07,
		Drop:              registry.DefaultDropConfig(),
		Market:            registrars.DefaultMarketConfig(),
		Labels:            safebrowsing.DefaultLabelModel(),
		RDAPFailures:      1,
		FinalizeAfterDays: 57,
	}
}

// dailyVolume returns the number of domains scheduled for deletion on day
// index i, following a smooth seasonal curve with noise, clamped to the
// paper's observed range, then scaled. The drop rate must scale with volume
// so a scaled-down Drop still lasts roughly an hour; scaledZoneDrop handles
// that.
func (c Config) dailyVolume(i int, rng *rand.Rand) int {
	const lo, hi = 66000.0, 112000.0
	mid := (lo + hi) / 2
	amp := (hi - lo) / 2 * 0.85
	v := mid + amp*math.Sin(2*math.Pi*float64(i+3)/28) + rng.NormFloat64()*4000
	return max(int(min(max(v, lo), hi)*c.Scale), 10)
}

// zones returns the study's zone list: the default .com/.net zone, paced
// under c.Drop (a zero rate keeps the default Drop), then the extra zones in
// config order. An entry named like the default zone stands for the default
// zone (every store hosts it) and is not listed again; it must not try to
// redefine it.
func (c Config) zones() ([]zone.Config, error) {
	def := zone.Default()
	if c.Drop.BaseRatePerSec != 0 {
		def.Drop = c.Drop
	}
	out := []zone.Config{def}
	for _, z := range c.Zones {
		if z.Name == def.Name {
			if !slices.Equal(z.TLDs, def.TLDs) || z.Policy != def.Policy {
				return nil, fmt.Errorf("sim: zone %q must stay the default %v %s zone", z.Name, def.TLDs, def.Policy)
			}
			continue
		}
		if err := z.Validate(); err != nil {
			return nil, err
		}
		out = append(out, z)
	}
	return out, nil
}

// zoneSeedStride spaces the per-zone RNG streams: zone zi of zones() (the
// default zone is 0) draws from Seed + zoneSeedStride*zi plus a fixed offset
// per component — +3 population, +5 pacing, +7 daily volume, +11 market.
const zoneSeedStride = 1000

// scaledZoneDrop returns z's Drop configuration with its processing rate
// scaled to the study volume, preserving the roughly one-hour Drop duration
// at any Scale. Instant-release zones keep a zero rate (every name goes at
// one instant; there is nothing to pace).
func (c Config) scaledZoneDrop(z zone.Config) registry.DropConfig {
	d := z.Drop
	if z.Policy == zone.PolicyInstant {
		return d
	}
	if d.BaseRatePerSec == 0 {
		d = registry.DefaultDropConfig()
		d.StartHour, d.StartMinute = z.Drop.StartHour, z.Drop.StartMinute
	}
	d.BaseRatePerSec = math.Max(0.05, d.BaseRatePerSec*c.Scale)
	return d
}
