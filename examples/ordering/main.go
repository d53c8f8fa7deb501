// Ordering: the §4.1 detective work — given one deletion day's observations,
// test every candidate deletion order (pending-list order, domain ID,
// registrar ID, creation date, expiration date, alphabetical, last-updated)
// and show that only the (lastUpdated, domainID) key lines the same-day
// re-registrations up on a diagonal. Then build the §4.2 minimum envelope on
// the winning order and validate it against the simulator's ground truth —
// the check the paper itself could not run.
//
//	go run ./examples/ordering
package main

import (
	"fmt"
	"log"
	"time"

	"dropzero"
	"dropzero/internal/core"
)

func main() {
	log.SetFlags(0)

	cfg := dropzero.DefaultConfig()
	cfg.Days = 2
	cfg.Scale = 0.05
	cfg.Seed = 3
	res, err := dropzero.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Work on the second study day, like the paper's Figure 3 (2 Jan 2018).
	day := cfg.StartDay.Next()
	var obs []dropzero.Observation
	for i := range res.Observations {
		if o := &res.Observations[i]; o.DeleteDay() == day {
			obs = append(obs, *o)
		}
	}
	fmt.Printf("deletion day %v: %d domains on the pending-delete list\n\n", day, len(obs))

	// Score every candidate ordering by how well it explains the timing of
	// same-day re-registrations (rank/time correlation).
	fmt.Println("candidate deletion orders (§4.1):")
	for _, r := range core.SearchOrderings(obs) {
		verdict := "rejected"
		if r.Score > 0.6 {
			verdict = "← the deletion order"
		}
		fmt.Printf("  %-20s correlation %6.3f   %s\n", r.Ordering, r.Score, verdict)
	}

	// Build the minimum envelope on the winning order.
	ranked := dropzero.Rank(obs)
	env, err := dropzero.BuildEnvelope(ranked, dropzero.DefaultEnvelopeConfig())
	if err != nil {
		log.Fatal(err)
	}
	gaps := env.Gaps()
	fmt.Printf("\nminimum envelope: %d points, %s – %s, median gap %v, max gap %v\n",
		env.Len(), env.Start().Format("15:04:05"), env.End().Format("15:04:05"),
		gaps.P50Gap, gaps.MaxGap)

	// Ground-truth validation: compare inferred earliest times with the
	// registry's actual deletion instants.
	truth := make(map[string]time.Time)
	for _, ev := range res.Deletions[day] {
		truth[ev.Name()] = ev.Time()
	}
	regr := core.FitRegression(ranked)
	var pts []core.Point
	var envPred, regPred []time.Time
	for _, r := range ranked {
		at, ok := truth[r.Obs.Name()]
		if !ok {
			continue
		}
		est, _ := env.EarliestAt(r.Rank)
		pts = append(pts, core.Point{Rank: len(pts), Time: at})
		envPred = append(envPred, est)
		regPred = append(regPred, regr.PredictAt(r.Rank))
	}
	envAcc := core.Accuracy(pts, func(i int) time.Time { return envPred[i] })
	regAcc := core.Accuracy(pts, func(i int) time.Time { return regPred[i] })

	fmt.Println("\ninferred earliest re-registration time vs ground truth:")
	fmt.Printf("  envelope model:      mean error %-8v median %-8v max %v\n",
		envAcc.Mean.Truncate(time.Millisecond), envAcc.Median, envAcc.Max)
	fmt.Printf("  linear regression:   mean error %-8v median %-8v max %v\n",
		regAcc.Mean.Truncate(time.Second), regAcc.Median.Truncate(time.Second), regAcc.Max.Truncate(time.Second))
	fmt.Println("\nthe straight-line fit drifts by minutes where the envelope stays within seconds —")
	fmt.Println("why §4.2 traces the observed minimum instead of fitting a line")
}
