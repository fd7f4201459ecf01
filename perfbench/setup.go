package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"cooper/internal/arch"
	"cooper/internal/cluster"
	"cooper/internal/core"
	"cooper/internal/profiler"
	"cooper/internal/recommend"
	"cooper/internal/stats"
	"cooper/internal/telemetry"
	"cooper/internal/workload"
)

// Streams split from the workload seed, one per kind of input, so the
// population, the churn and the wire pairings never share a stream.
const (
	populationStream = 1
	churnStream      = 2
	pairStream       = 3
)

// frameworkSeed seeds every framework the benchmark builds: its
// profiling campaign, its predicted penalties and its market's random
// stream. The workload seed generates the program's inputs — the
// population, its churn, the wire agents' pairings — so one seed to the
// next varies the inputs while the system under test stays the same.
const frameworkSeed = 1

// frameworkConfig is the configuration every workload builds its
// framework with: the paper's catalog, machines and SMR policy, the real
// profiling + collaborative-filtering pipeline, one worker per core, and
// telemetry wired as cooperd wires it (telemetry.NewSeeded). A nil
// event ring is the recorder-off configuration.
func frameworkConfig(tel *telemetry.Telemetry, market core.MarketConfig) core.Config {
	return core.Config{
		Seed:     frameworkSeed,
		Market:   market,
		Pipeline: core.PipelineConfig{Workers: workers()},
		Observe:  core.ObserveConfig{Telemetry: tel},
	}
}

// newTelemetry returns cooperd's telemetry for seed, with the flight
// recorder removed when recorder is false.
func newTelemetry(seed int64, recorder bool) *telemetry.Telemetry {
	tel := telemetry.NewSeeded(seed)
	if !recorder {
		tel.Events = nil
	}
	return tel
}

// settleHeap collects garbage before a timed set-up, so that every
// set-up repeat starts from the same heap instead of paying, at random,
// for a collection of the garbage its predecessors left.
func settleHeap() { runtime.GC() }

// buildFramework builds a framework and returns it with its set-up time.
func buildFramework(cfg core.Config) (*core.Framework, float64, error) {
	settleHeap()
	start := time.Now()
	fw, err := core.NewFramework(cfg)
	if err != nil {
		return nil, 0, fmt.Errorf("build framework: %w", err)
	}
	return fw, time.Since(start).Seconds(), nil
}

// timeSetup builds a framework as every workload does, closes it, and
// returns its set-up time.
func timeSetup() (float64, error) {
	fw, s, err := buildFramework(frameworkConfig(newTelemetry(frameworkSeed, true), core.MarketConfig{}))
	if err != nil {
		return 0, err
	}
	fw.Close()
	return s, nil
}

// population returns n agents in the paper's Uniform mix, stratified:
// the catalog's jobs in turn, so every job runs on n/len(catalog) agents
// (one more for the first n%len(catalog)), shuffled by r. Sampling the
// mix instead would let each seed's job counts drift by several
// percent, and the matching's cost and quality with them.
func population(n int, catalog []workload.Job, r *rand.Rand) workload.Population {
	pop := workload.Population{Jobs: make([]workload.Job, n), Mix: stats.Uniform{}.Name()}
	for i := range pop.Jobs {
		pop.Jobs[i] = catalog[i%len(catalog)]
	}
	r.Shuffle(n, func(i, j int) { pop.Jobs[i], pop.Jobs[j] = pop.Jobs[j], pop.Jobs[i] })
	return pop
}

// composedSim is the profiling simulation core uses when Config.Sim is
// zero. The composed set-up must use the same, and checks below that it
// reproduced the framework's penalty matrix.
var composedSim = arch.SimConfig{DurationS: 30, StepS: 1, PhaseNoise: 0.05, PhaseCorr: 0.6}

// composed is the pipeline state the traced run assembles from public
// layer calls, mirroring what core.NewFramework builds.
type composed struct {
	machine   arch.CMP
	catalog   []workload.Job
	cache     *arch.PairCache
	truth     [][]float64
	predicted [][]float64
	cluster   *cluster.Cluster
	reg       *telemetry.Registry
}

// composeSetup builds the framework's state layer by layer, each call in
// a set-up span, and records the set-up counters into lr. A predicted
// matrix that differs from the framework's (want) is a divergence.
func composeSetup(tr *tracer, lr *layerReport, want [][]float64) (*composed, error) {
	values := lr.values
	ctx := context.Background()
	c := &composed{machine: arch.DefaultCMP(), reg: telemetry.NewRegistry()}
	err := tr.call("workload.catalog", -1, -1, func() error {
		var err error
		c.catalog, err = workload.Catalog(c.machine)
		return err
	})
	if err != nil {
		return nil, err
	}
	c.cache = arch.NewPairCache(c.machine, c.reg)
	err = tr.call("profiler.dense", -1, -1, func() error {
		var err error
		c.truth, err = profiler.DensePenaltiesContext(ctx, c.machine, c.catalog, workers(), c.cache)
		return err
	})
	if err != nil {
		return nil, err
	}
	db := profiler.NewDatabase()
	var sparse [][]float64
	err = tr.call("profiler.campaign", -1, -1, func() error {
		prof := profiler.New(c.machine, db, frameworkSeed+1)
		prof.Sim = composedSim
		prof.Workers = workers()
		if err := prof.CampaignContext(ctx, c.catalog, 0.25); err != nil {
			return err
		}
		var err error
		sparse, err = profiler.PenaltyMatrix(db, c.catalog)
		return err
	})
	if err != nil {
		return nil, err
	}
	var iters int
	err = tr.call("recommend.complete", -1, -1, func() error {
		pred := recommend.Default()
		pred.Metrics = c.reg
		pred.Workers = workers()
		var err error
		c.predicted, iters, err = pred.CompleteContext(ctx, sparse)
		return err
	})
	if err != nil {
		return nil, err
	}
	acc, err := recommend.PreferenceAccuracy(c.truth, c.predicted)
	if err != nil {
		return nil, err
	}
	c.cluster, err = cluster.New(10, c.machine)
	if err != nil {
		return nil, err
	}
	c.cluster.SetPairCache(c.cache)
	values["profiler.records"] = float64(db.Len())
	values["recommend.fill_iters"] = float64(iters)
	values["recommend.sim_pairs_recomputed"] = float64(c.reg.Counter("predict.sim_pairs_recomputed").Value())
	values["recommend.sim_pairs_skipped"] = float64(c.reg.Counter("predict.sim_pairs_skipped").Value())
	values["recommend.preference_accuracy"] = acc
	if !sameMatrix(c.predicted, want) {
		lr.mismatch = "composed set-up predicted a different penalty matrix than core.NewFramework"
	}
	return c, nil
}

// sameMatrix reports whether two penalty matrices are bit-identical.
func sameMatrix(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}
