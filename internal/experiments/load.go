package experiments

import (
	"fmt"

	"cooper/internal/coordinator"
	"cooper/internal/core"
	"cooper/internal/policy"
	"cooper/internal/stats"
)

// LoadPoint is one arrival rate in the continuous-operation study: how
// queueing delay, epoch utilization and penalties respond as offered load
// approaches the cluster's capacity. Not a paper figure — it exercises
// the paper's §III-A operating regime ("if the system is heavily loaded,
// jobs queue for scheduling").
type LoadPoint struct {
	RatePerHour float64
	Jobs        int
	Epochs      int
	MeanWaitS   float64
	MaxQueued   int
	MeanPenalty float64
}

// LoadSweep drives the coordinator over increasing Poisson arrival rates
// on a fixed cluster and scheduling period.
func (l *Lab) LoadSweep(ratesPerHour []float64, hours float64, seed int64) ([]LoadPoint, error) {
	f, err := core.NewFramework(core.Config{
		Machine:  l.Machine,
		Seed:     seed,
		Market:   core.MarketConfig{Policy: policy.StableMarriageRandom{}},
		Pipeline: core.PipelineConfig{Oracle: true},
	})
	if err != nil {
		return nil, err
	}
	var out []LoadPoint
	for _, rate := range ratesPerHour {
		arrivals, err := coordinator.PoissonArrivals(
			rate/3600, hours*3600, l.Catalog, stats.Uniform{}, stats.NewRand(seed+int64(rate)))
		if err != nil {
			return nil, err
		}
		driver := &coordinator.Driver{Framework: f, PeriodS: 300, MaxBatch: 40}
		_, summary, err := driver.Run(arrivals)
		if err != nil {
			return nil, err
		}
		out = append(out, LoadPoint{
			RatePerHour: rate,
			Jobs:        summary.Jobs,
			Epochs:      summary.Epochs,
			MeanWaitS:   summary.MeanWaitS,
			MaxQueued:   summary.MaxQueued,
			MeanPenalty: summary.MeanPenalty,
		})
	}
	return out, nil
}

// RenderLoadSweep formats the study.
func RenderLoadSweep(points []LoadPoint) string {
	out := "Load sweep: continuous operation under rising arrival rates (SMR, 300s epochs)\n"
	out += fmt.Sprintf("%-12s %-7s %-8s %-11s %-11s %-10s\n",
		"jobs/hour", "jobs", "epochs", "mean wait", "peak queue", "penalty")
	for _, p := range points {
		out += fmt.Sprintf("%-12.0f %-7d %-8d %-11s %-11d %-10.4f\n",
			p.RatePerHour, p.Jobs, p.Epochs,
			fmt.Sprintf("%.0fs", p.MeanWaitS), p.MaxQueued, p.MeanPenalty)
	}
	return out
}
