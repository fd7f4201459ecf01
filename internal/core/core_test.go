package core

import (
	"errors"
	"testing"
	"time"

	"cooper/internal/matching"
	"cooper/internal/policy"
	"cooper/internal/stats"
	"cooper/internal/telemetry"
	"cooper/internal/workload"
)

func oracleFramework(t *testing.T, p policy.Policy, seed int64) *Framework {
	t.Helper()
	f, err := NewFramework(Config{Seed: seed, Market: MarketConfig{Policy: p}, Pipeline: PipelineConfig{Oracle: true}})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNewOracle(t *testing.T) {
	f := oracleFramework(t, nil, 1)
	if len(f.Catalog()) != 20 {
		t.Fatalf("catalog = %d", len(f.Catalog()))
	}
	if f.Database().Len() != 0 {
		t.Error("oracle mode should not profile")
	}
	acc, err := f.PredictionAccuracy()
	if err != nil {
		t.Fatal(err)
	}
	if acc != 1 {
		t.Errorf("oracle accuracy = %v, want 1", acc)
	}
}

func TestNewWithProfiling(t *testing.T) {
	f, err := NewFramework(Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if f.Database().Len() == 0 {
		t.Error("profiling campaign should populate the database")
	}
	if f.PredictorIterations() < 1 || f.PredictorIterations() > 3 {
		t.Errorf("predictor iterations = %d, want 1-3", f.PredictorIterations())
	}
	acc, err := f.PredictionAccuracy()
	if err != nil {
		t.Fatal(err)
	}
	// End-to-end accuracy runs through noisy profiling, so it trails the
	// noiseless Figure 12 numbers (~0.73 at 25% sampling) somewhat.
	if acc < 0.60 {
		t.Errorf("prediction accuracy = %.3f, want >= 0.60 at 25%% sampling", acc)
	}
}

func TestNewInvalidMachine(t *testing.T) {
	var cfg Config
	cfg.Machine.Cores = -1
	if _, err := NewFramework(cfg); err == nil {
		t.Error("invalid machine accepted")
	}
}

func TestRunEpochOracle(t *testing.T) {
	f := oracleFramework(t, policy.StableMarriageRandom{}, 3)
	pop := f.SamplePopulation(40, stats.Uniform{})
	rep, err := f.RunEpoch(pop)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Match.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, j := range rep.Match {
		if j == matching.Unmatched {
			t.Fatalf("agent %d unmatched in even population", i)
		}
	}
	if rep.MeanTruePenalty() <= 0 {
		t.Errorf("mean penalty = %v", rep.MeanTruePenalty())
	}
	if rep.Cluster.Jobs != 40 {
		t.Errorf("cluster ran %d jobs, want 40", rep.Cluster.Jobs)
	}
	if rep.Cluster.UtilizationPct <= 0 {
		t.Errorf("utilization = %v", rep.Cluster.UtilizationPct)
	}
	// With oracle penalties, predicted and true per-agent penalties agree.
	for i := range rep.TruePenalty {
		if rep.TruePenalty[i] != rep.PredictedPenalty[i] {
			t.Fatal("oracle epoch should have matching penalties")
		}
	}
}

func TestEpochTimeoutBoundsRunEpoch(t *testing.T) {
	f, err := NewFramework(Config{Seed: 1, Market: MarketConfig{Policy: policy.Greedy{}},
		Pipeline: PipelineConfig{Oracle: true, EpochTimeout: time.Nanosecond}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pop := f.SamplePopulation(8, stats.Uniform{})
	if _, err := f.RunEpoch(pop); !errors.Is(err, ErrCanceled) {
		t.Fatalf("RunEpoch under 1ns epoch timeout = %v, want ErrCanceled", err)
	}

	// A generous deadline must not perturb a normal epoch.
	g, err := NewFramework(Config{Seed: 1, Market: MarketConfig{Policy: policy.Greedy{}},
		Pipeline: PipelineConfig{Oracle: true, EpochTimeout: time.Hour}})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if _, err := g.RunEpoch(pop); err != nil {
		t.Fatalf("RunEpoch under 1h epoch timeout: %v", err)
	}
}

func TestRunEpochEmptyPopulation(t *testing.T) {
	f := oracleFramework(t, nil, 4)
	if _, err := f.RunEpoch(f.SamplePopulation(0, stats.Uniform{})); err == nil {
		t.Error("empty population accepted")
	}
}

func TestStablePolicyBlocksLessThanGreedy(t *testing.T) {
	popSeed := int64(5)
	blockCount := func(p policy.Policy) int {
		f := oracleFramework(t, p, popSeed)
		pop := f.SamplePopulation(100, stats.Uniform{})
		rep, err := f.RunEpoch(pop)
		if err != nil {
			t.Fatal(err)
		}
		return len(rep.BlockingPairs)
	}
	gr := blockCount(policy.Greedy{})
	smr := blockCount(policy.StableMarriageRandom{})
	if smr > gr {
		t.Errorf("SMR blocking pairs %d exceed GR %d", smr, gr)
	}
}

func TestRunEpochPerformanceWithinHeuristics(t *testing.T) {
	// The paper's headline: Cooper performs within ~5% of prior
	// heuristics. Compare SMR's mean penalty against GR's.
	mean := func(p policy.Policy) float64 {
		f := oracleFramework(t, p, 6)
		pop := f.SamplePopulation(200, stats.Uniform{})
		rep, err := f.RunEpoch(pop)
		if err != nil {
			t.Fatal(err)
		}
		return rep.MeanTruePenalty()
	}
	gr := mean(policy.Greedy{})
	smr := mean(policy.StableMarriageRandom{})
	if smr > gr+0.05 {
		t.Errorf("SMR mean penalty %.4f should be within 5%% of GR %.4f", smr, gr)
	}
}

func TestBreakAwayCountsRespondToAlpha(t *testing.T) {
	count := func(alpha float64) int {
		f, err := NewFramework(Config{Seed: 7, Market: MarketConfig{Policy: policy.Greedy{}, Alpha: alpha},
			Pipeline: PipelineConfig{Oracle: true}})
		if err != nil {
			t.Fatal(err)
		}
		pop := f.SamplePopulation(100, stats.Uniform{})
		rep, err := f.RunEpoch(pop)
		if err != nil {
			t.Fatal(err)
		}
		return rep.BreakAwayCount()
	}
	loose := count(0)
	strict := count(0.05)
	if strict > loose {
		t.Errorf("raising alpha should reduce break-aways: %d -> %d", loose, strict)
	}
}

func TestSamplePopulationMixes(t *testing.T) {
	f := oracleFramework(t, nil, 8)
	low := f.SamplePopulation(500, stats.BetaLow())
	high := f.SamplePopulation(500, stats.BetaHigh())
	var bwLow, bwHigh float64
	for _, j := range low.Jobs {
		bwLow += j.BandwidthGBps
	}
	for _, j := range high.Jobs {
		bwHigh += j.BandwidthGBps
	}
	if bwLow >= bwHigh {
		t.Errorf("Beta-Low population should demand less bandwidth: %v vs %v",
			bwLow, bwHigh)
	}
}

func TestNewCustomCatalogValidation(t *testing.T) {
	if _, err := NewFramework(Config{Catalog: []workload.Job{}, Pipeline: PipelineConfig{Oracle: true}}); err == nil {
		t.Error("empty custom catalog accepted")
	}
}

func TestRunEpochUnknownJob(t *testing.T) {
	f := oracleFramework(t, nil, 40)
	pop := workload.Population{Jobs: []workload.Job{{Name: "ghost"}}}
	if _, err := f.RunEpoch(pop); err == nil {
		t.Error("population with unknown job accepted")
	}
}

func TestRunEpochOddPopulation(t *testing.T) {
	f := oracleFramework(t, nil, 41)
	pop := f.SamplePopulation(41, stats.Uniform{})
	rep, err := f.RunEpoch(pop)
	if err != nil {
		t.Fatal(err)
	}
	solo := 0
	for _, j := range rep.Match {
		if j == matching.Unmatched {
			solo++
		}
	}
	if solo != 1 {
		t.Errorf("odd population left %d solo agents", solo)
	}
	if rep.Cluster.Jobs != 41 {
		t.Errorf("cluster ran %d jobs, want 41", rep.Cluster.Jobs)
	}
}

func TestPredictSpanSimPairAttrs(t *testing.T) {
	tel := telemetry.New()
	f, err := NewFramework(Config{Seed: 11, Observe: ObserveConfig{Telemetry: tel}})
	if err != nil {
		t.Fatal(err)
	}
	_ = f
	span := tel.Trace.Find("predict")
	if span == nil {
		t.Fatal("no predict span recorded")
	}
	attrs := map[string]any{}
	for _, a := range span.Snapshot().Attrs {
		attrs[a.Key] = a.Value
	}
	rec, ok := attrs["sim_pairs_recomputed"].(int64)
	if !ok {
		t.Fatalf("sim_pairs_recomputed attr missing or wrong type: %v", attrs)
	}
	skip, ok := attrs["sim_pairs_skipped"].(int64)
	if !ok {
		t.Fatalf("sim_pairs_skipped attr missing or wrong type: %v", attrs)
	}
	if rec <= 0 {
		t.Errorf("sim_pairs_recomputed = %d, want > 0 for a profiled fill", rec)
	}
	if rec+skip <= 0 || skip < 0 {
		t.Errorf("sim pair counters implausible: recomputed=%d skipped=%d", rec, skip)
	}
	// The span attrs are deltas of the registry counters, so they must not
	// exceed the totals.
	reg := tel.Registry()
	if total := reg.Counter("predict.sim_pairs_recomputed").Value(); rec > total {
		t.Errorf("span delta %d exceeds counter total %d", rec, total)
	}
}
