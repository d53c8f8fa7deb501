// Command dropanalyze reproduces the paper's evaluation from a dataset
// produced by cmd/dropsim: every figure (1–8) plus the in-text statistics,
// rendered as text tables and ASCII heatmaps.
//
// Usage:
//
//	dropanalyze -data dataset.csv -registrars registrars.csv
//
// Without -data, it simulates a study inline first (-days/-scale/-seed), in
// which case simulator ground truth is available and the inference-accuracy
// ablation is included in the report.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"dropzero/internal/analysis"
	"dropzero/internal/measure"
	"dropzero/internal/model"
	"dropzero/internal/sim"
	"dropzero/internal/zone"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dropanalyze: ")

	data := flag.String("data", "", "dataset CSV from dropsim (empty: simulate inline)")
	regsPath := flag.String("registrars", "", "registrar directory CSV from dropsim")
	days := flag.Int("days", 14, "inline simulation: deletion days")
	scale := flag.Float64("scale", 0.05, "inline simulation: volume scale")
	seed := flag.Int64("seed", 1, "inline simulation: seed")
	parallelism := flag.Int("parallelism", 0, "lookup/figure workers (0 = GOMAXPROCS, 1 = sequential; output is identical at any setting)")
	asJSON := flag.Bool("json", false, "emit the machine-readable summary instead of the text report")
	stormFig := flag.Bool("storm", false, "run the live-storm figure instead: re-registration delay CDF vs client aggressiveness (uses -seed)")
	stormNames := flag.Int("storm-names", 12, "contested names per -storm sweep point")
	delays := flag.String("delays", "", "per-zone delay CSV from dropsim -delays: render the per-policy re-registration delay CDF figure instead of the report")
	zones := flag.String("zones", "", "inline simulation: extra zone specs (name=tld[+tld...]:policy[@HH:MM]; semicolon-separated); appends the per-policy delay CDF figure to the report")
	flag.Parse()

	if *stormFig {
		if err := runStormFigure(os.Stdout, *stormNames, *seed); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *delays != "" {
		rows, err := readZoneDelays(*delays)
		if err != nil {
			log.Fatal(err)
		}
		if err := writeZoneDelayFigure(os.Stdout, rows); err != nil {
			log.Fatal(err)
		}
		return
	}

	var in analysis.Input
	switch {
	case *data != "":
		obs, err := readObservations(*data)
		if err != nil {
			log.Fatal(err)
		}
		in.Observations = obs
		if *regsPath != "" {
			regs, err := readRegistrars(*regsPath)
			if err != nil {
				log.Fatal(err)
			}
			in.Registrars = regs
		}
	default:
		cfg := sim.DefaultConfig()
		cfg.Days = *days
		cfg.Scale = *scale
		cfg.Seed = *seed
		cfg.Parallelism = *parallelism
		if *zones != "" {
			zs, err := zone.ParseSpecs(*zones)
			if err != nil {
				log.Fatal(err)
			}
			cfg.Zones = zs
		}
		log.Printf("no -data given; simulating %d days at scale %.3f...", cfg.Days, cfg.Scale)
		res, err := sim.Run(cfg)
		if err != nil {
			log.Fatal(err)
		}
		in = analysis.Input{
			Observations: res.Observations,
			Registrars:   res.Registrars,
			ServiceOf:    res.Directory.ServiceOf,
			Deletions:    res.Deletions,
		}
		if len(res.Zones) > 1 {
			defer func() {
				fmt.Println()
				if err := writeZoneDelayFigure(os.Stdout, res.ZoneDelays()); err != nil {
					log.Fatal(err)
				}
			}()
		}
	}
	in.Parallelism = *parallelism

	a := analysis.New(in)
	report := a.BuildReport()
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(analysis.Summarize(report)); err != nil {
			log.Fatal(err)
		}
		return
	}
	report.Write(os.Stdout)
}

func readZoneDelays(path string) ([]sim.ZoneDelay, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return sim.ReadZoneDelaysCSV(f)
}

func readObservations(path string) ([]model.Observation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return measure.ReadCSV(f)
}

func readRegistrars(path string) ([]model.Registrar, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return measure.ReadRegistrarsCSV(f)
}
