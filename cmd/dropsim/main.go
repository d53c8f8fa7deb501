// Command dropsim runs a full simulated measurement study — seeding the
// expiring-domain population, running the registry's daily Drop, letting the
// drop-catch market claim names, and driving the paper's measurement
// pipeline — then writes the resulting dataset and registrar directory as
// CSV for cmd/dropanalyze.
//
// Usage:
//
//	dropsim -days 56 -scale 0.1 -seed 1 -out dataset.csv -registrars registrars.csv
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"dropzero/internal/journal"
	"dropzero/internal/measure"
	"dropzero/internal/sim"
	"dropzero/internal/zone"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dropsim: ")

	cfg := sim.DefaultConfig()
	days := flag.Int("days", cfg.Days, "number of deletion days to simulate")
	scale := flag.Float64("scale", cfg.Scale, "fraction of the paper's daily deletion volume (1.0 = 66k-112k/day)")
	seed := flag.Int64("seed", cfg.Seed, "simulation seed (equal seeds give equal datasets)")
	parallelism := flag.Int("parallelism", 0, "measurement lookup workers (0 = GOMAXPROCS, 1 = sequential; output is identical at any setting)")
	shards := flag.Int("shards", 0, "registry store shard count (0 = auto from GOMAXPROCS, 1 = legacy single lock; output is identical at any setting)")
	out := flag.String("out", "dataset.csv", "output path for the observation dataset")
	regsOut := flag.String("registrars", "registrars.csv", "output path for the registrar directory")
	dataDir := flag.String("datadir", "", "durability directory: journal the study's state there and resume a crashed run from it (empty = memory only)")
	durability := flag.String("durability", "async", "journal mode when -datadir is set: off, async or sync")
	zones := flag.String("zones", "", "extra zones beside the default .com/.net one, as semicolon-separated name=tld[+tld...]:policy[@HH:MM] specs (e.g. \"nordic=se+nu:instant@04:00;alt=org:random\")")
	delaysOut := flag.String("delays", "", "output path for the per-zone ground-truth re-registration delay CSV (empty = skip; feeds dropanalyze -delays)")
	flag.Parse()

	cfg.Days = *days
	cfg.Scale = *scale
	cfg.Seed = *seed
	cfg.Parallelism = *parallelism
	cfg.Shards = *shards
	cfg.DataDir = *dataDir
	mode, err := journal.ParseMode(*durability)
	if err != nil {
		log.Fatal(err)
	}
	cfg.Durability = mode
	if *zones != "" {
		zs, err := zone.ParseSpecs(*zones)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Zones = zs
	}

	log.Printf("simulating %d deletion days at scale %.3f (seed %d)...", cfg.Days, cfg.Scale, cfg.Seed)
	res, err := sim.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if !res.Recovered.Fresh() {
		log.Printf("resumed from %s: snapshot seq %d, %d journal records replayed",
			cfg.DataDir, res.Recovered.SnapshotSeq, res.Recovered.ReplayedRecords)
	}

	reregs := 0
	for i := range res.Observations {
		if res.Observations[i].Reregistered() {
			reregs++
		}
	}
	fmt.Printf("domains on pending-delete lists: %d\n", len(res.Observations))
	fmt.Printf("re-registered:                   %d (%.1f%%)\n",
		reregs, 100*float64(reregs)/float64(len(res.Observations)))
	st := res.PipelineStats
	fmt.Printf("pipeline: %d lookups, %d RDAP errors, %d WHOIS fallbacks, %d oracle lookups\n",
		st.Lookups, st.RDAPErrors, st.WHOISFallbacks, st.OracleLookups)

	if err := writeFile(*out, func(f *os.File) error {
		return measure.WriteCSV(f, res.Observations)
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset written to %s\n", *out)

	if err := writeFile(*regsOut, func(f *os.File) error {
		return measure.WriteRegistrarsCSV(f, res.Registrars)
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("registrar directory written to %s\n", *regsOut)

	if len(res.Zones) > 1 {
		delays := res.ZoneDelays()
		perZone := make(map[string]int)
		for _, d := range delays {
			perZone[d.Zone]++
		}
		for _, z := range res.Zones {
			fmt.Printf("zone %-10s %-8s %d TLDs, %d re-registrations\n",
				z.Name, z.Policy, len(z.TLDs), perZone[z.Name])
		}
	}
	if *delaysOut != "" {
		if err := writeFile(*delaysOut, func(f *os.File) error {
			return sim.WriteZoneDelaysCSV(f, res.ZoneDelays())
		}); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("per-zone delay CSV written to %s\n", *delaysOut)
	}
}

func writeFile(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
