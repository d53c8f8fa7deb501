package sim

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"time"

	"dropzero/internal/model"
	"dropzero/internal/names"
	"dropzero/internal/registrars"
	"dropzero/internal/registry"
	"dropzero/internal/simtime"
)

// Lot metadata the simulator keeps about every expiring domain: the
// ground-truth desirability and age driving demand. The measurement side
// never sees it.
type lotMeta struct {
	value    float64
	ageYears int
}

// ageDistribution is the prior-registration age mix (in whole years). Most
// deleted domains were never renewed (age 1); a long tail is much older —
// the inventory whose re-registrations Figure 8 tracks.
var ageDistribution = []struct {
	years  int
	weight float64
}{
	{1, 0.52}, {2, 0.16}, {3, 0.10}, {4, 0.07}, {5, 0.05},
	{6, 0.035}, {7, 0.02}, {8, 0.015}, {9, 0.01}, {10, 0.008},
	{11, 0.005}, {12, 0.004}, {13, 0.003}, {14, 0.002}, {15, 0.003},
}

func sampleAge(rng *rand.Rand) int {
	r := rng.Float64()
	for _, a := range ageDistribution {
		if r < a.weight {
			return a.years
		}
		r -= a.weight
	}
	return 1
}

// domainSpec is one expiring domain before insertion into the store.
type domainSpec struct {
	name        string
	registrarID int
	created     time.Time
	updated     time.Time
	expiry      time.Time
	deleteDay   simtime.Day
	meta        lotMeta
}

// seeder builds the historical population for one zone's TLD set.
type seeder struct {
	cfg   Config
	rng   *rand.Rand
	gen   *names.Generator
	dir   *registrars.Directory
	grace map[int]int // per prior-sponsor grace days
	// priorSponsors are the registrars that sponsored the expiring
	// registrations: retail registrars, not drop-catch services. goDaddy
	// are GoDaddy's accreditations, which lead the list.
	priorSponsors, goDaddy []int
	// tlds is the zone's TLD list: tlds[0] carries the published volume,
	// the rest split the NetShare interleave — the default zone's
	// [com, net] reproduces the paper's mix exactly.
	tlds []model.TLD
	// volSeed seeds the daily-volume RNG stream.
	volSeed int64
}

// newSeeder returns the seeder of the zone operating tlds, drawing names,
// sponsors and ages from base+3 and daily volumes from base+7, where base is
// the zone's seed (Config.Seed for the default zone).
func newSeeder(cfg Config, dir *registrars.Directory, tlds []model.TLD, base int64) *seeder {
	rng := rand.New(rand.NewSource(base + 3))
	s := &seeder{
		cfg:     cfg,
		rng:     rng,
		gen:     names.NewGenerator(rng),
		dir:     dir,
		grace:   make(map[int]int),
		tlds:    tlds,
		volSeed: base + 7,
	}
	// Expiring domains were sponsored by GoDaddy, Dynadot, Xinnet and the
	// long tail — with GoDaddy over-represented as the largest registrar.
	s.goDaddy = dir.Accreditations(registrars.SvcGoDaddy)
	s.priorSponsors = append(s.priorSponsors, s.goDaddy...)
	s.priorSponsors = append(s.priorSponsors, dir.Accreditations(registrars.SvcDynadot)...)
	s.priorSponsors = append(s.priorSponsors, dir.Accreditations(registrars.SvcXinnet)...)
	s.priorSponsors = append(s.priorSponsors, dir.Accreditations(registrars.SvcOther)...)
	for _, id := range s.priorSponsors {
		s.grace[id] = 25 + rng.Intn(21) // 25–45 days after expiry
	}
	return s
}

func (s *seeder) pickSponsor() int {
	// 25 % GoDaddy, rest uniform.
	if s.rng.Float64() < 0.25 {
		return s.goDaddy[s.rng.Intn(len(s.goDaddy))]
	}
	return s.priorSponsors[s.rng.Intn(len(s.priorSponsors))]
}

// specsForDay generates comCount expiring primary-TLD domains deleted on
// day, plus the interleaved secondary share on top — for the default zone
// that is .com volume plus the .net share, the published (and measured)
// volume counting .com only, like the paper's Figure 1. Single-TLD zones
// have no interleave.
//
// The day's names are spelled into one string and each spec's name is a slice
// of it: one allocation per seeded day instead of one per name. Everything
// that goes on to hold a name — spec, store, deletion event, dataset row —
// holds those bytes and lives to the end of the study, so the arena pins
// nothing a per-name string would have let go.
func (s *seeder) specsForDay(day simtime.Day, comCount int, lifecycle registry.LifecycleConfig) []domainSpec {
	count := comCount
	if len(s.tlds) > 1 {
		count += int(float64(comCount)*s.cfg.NetShare + 0.5)
	}
	tldOf := func(i int) model.TLD {
		if i < comCount {
			return s.tlds[0]
		}
		return s.tlds[1+(i-comCount)%(len(s.tlds)-1)]
	}
	out := make([]domainSpec, 0, count)
	updatedDay := day.AddDays(-(lifecycle.RedemptionDays + lifecycle.PendingDeleteDays))
	nameBytes := 0
	for i := 0; i < count; i++ {
		g := s.gen.Next()
		sponsor := s.pickSponsor()
		// The registrar deleted the whole day's batch at one instant; the
		// per-registrar batch second is what makes last-updated ties big
		// and the (Updated, ID) order non-trivial.
		updated := lifecycle.BatchInstant(updatedDay, sponsor)
		expiry := updated.AddDate(0, 0, -s.grace[sponsor])
		age := sampleAge(s.rng)
		created := expiry.AddDate(-age, 0, 0).Add(-time.Duration(s.rng.Intn(86400)) * time.Second)
		out = append(out, domainSpec{
			name:        g.Label, // the whole name once the day's arena is spelled, below
			registrarID: sponsor,
			created:     created,
			updated:     updated,
			expiry:      expiry,
			deleteDay:   day,
			meta:        lotMeta{value: g.Value, ageYears: age},
		})
		nameBytes += len(g.Label) + 1 + len(tldOf(i))
	}
	// Grown once to its final size, the builder never moves its buffer, so
	// every String() below is a view of the same bytes.
	var arena strings.Builder
	arena.Grow(nameBytes)
	for i := range out {
		start := arena.Len()
		arena.WriteString(out[i].name)
		arena.WriteByte('.')
		arena.WriteString(string(tldOf(i)))
		out[i].name = arena.String()[start:]
	}
	return out
}

// generate builds the full population for every deletion day in insertion
// order (by creation time, preserving the ID/creation-time invariant).
// Generation is pure: it consumes only the seeder's RNG streams, never the
// store, so a resumed study can regenerate the identical population without
// touching the recovered registry.
func (s *seeder) generate(lifecycle registry.LifecycleConfig) []domainSpec {
	var specs []domainSpec
	volRng := rand.New(rand.NewSource(s.volSeed))
	day := s.cfg.StartDay
	for i := 0; i < s.cfg.Days; i++ {
		specs = append(specs, s.specsForDay(day, s.cfg.dailyVolume(i, volRng), lifecycle)...)
		day = day.Next()
	}
	sortByCreation(specs)
	return specs
}

// lotMetas indexes the ground-truth metadata of specs by name.
func lotMetas(specs []domainSpec) map[string]lotMeta {
	meta := make(map[string]lotMeta, len(specs))
	for _, sp := range specs {
		meta[sp.name] = sp.meta
	}
	return meta
}

// sortByCreation sorts specs by creation time, stably. A stable sort of the
// specs themselves moves 130-odd-byte values through every merge step; this
// sorts one uint64 per spec — the creation second, counted from the
// earliest, above the spec's position, so equal seconds keep their order —
// then moves each spec once, in place, along the permutation's cycles. The
// position takes as many bits as the count needs: 23 for the paper's 5 M
// deletions leave 41 for a span of 70 000 years.
func sortByCreation(specs []domainSpec) {
	if len(specs) == 0 {
		return
	}
	first, last := specs[0].created.Unix(), specs[0].created.Unix()
	for i := range specs {
		first, last = min(first, specs[i].created.Unix()), max(last, specs[i].created.Unix())
	}
	shift := bits.Len(uint(len(specs)))
	if bits.Len64(uint64(last-first)) > 64-shift {
		panic(fmt.Sprintf("sim: %d creation times over %d s do not fit a sort key", len(specs), last-first))
	}
	mask := uint64(1)<<shift - 1
	keys := make([]uint64, len(specs))
	for i := range specs {
		keys[i] = uint64(specs[i].created.Unix()-first)<<shift | uint64(i)
	}
	slices.Sort(keys)
	from := func(to int) int { return int(keys[to] & mask) }
	for i := range keys {
		if from(i) == i {
			continue
		}
		head, to := specs[i], i
		for f := from(to); f != i; f = from(to) {
			specs[to], keys[to] = specs[f], uint64(to)
			to = f
		}
		specs[to], keys[to] = head, uint64(to)
	}
}

// mergeSpecs merges two creation-time-sorted spec slices, preserving the
// sort and taking ties from a first — the multi-zone population keeps the
// global ID-increases-with-creation-time invariant. Merged into nothing, b
// is returned as it is.
func mergeSpecs(a, b []domainSpec) []domainSpec {
	if len(a) == 0 {
		return b
	}
	out := make([]domainSpec, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if b[j].created.Before(a[i].created) {
			out = append(out, b[j])
			j++
		} else {
			out = append(out, a[i])
			i++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// insertAll seeds specs into the store in order. With resume set, names the
// store already holds are skipped: a recovered study re-walks the
// deterministic insertion order and fills in only whatever the crash cut
// off — the store ends up with exactly the population an uninterrupted
// seeding would have produced.
func insertAll(store *registry.Store, specs []domainSpec, resume bool) error {
	for _, sp := range specs {
		_, err := store.SeedAt(sp.name, sp.registrarID, sp.created, sp.updated, sp.expiry,
			model.StatusPendingDelete, sp.deleteDay)
		if err != nil {
			if resume && errors.Is(err, registry.ErrExists) {
				continue
			}
			return fmt.Errorf("sim: seed %s: %w", sp.name, err)
		}
	}
	return nil
}
