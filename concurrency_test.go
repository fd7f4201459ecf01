package cooper

// Tests for the parallel epoch pipeline's core guarantee: worker count
// is a performance knob, never a semantics knob. A framework built with
// Workers: 1 and one built with Workers: 8 must produce byte-identical
// epoch reports through the full pipeline (profiling campaign,
// collaborative filtering, matching, assessment, dispatch), for every
// policy and seed. Alongside: the pair-cache accounting, Close/drain
// semantics, and context cancellation.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"math/rand"

	"cooper/internal/arch"
	"cooper/internal/coordinator"
	"cooper/internal/stats"
	"cooper/internal/workload"
)

// shortSim keeps the non-Oracle profiling campaign fast enough to run
// for every policy x seed x worker-count combination.
var shortSim = arch.SimConfig{DurationS: 10, StepS: 1, PhaseNoise: 0.05, PhaseCorr: 0.6}

// sixPolicies returns the paper's policy set by abbreviation.
func sixPolicies() map[string]Policy {
	return map[string]Policy{
		"GR":  Greedy(),
		"CO":  Complementary(),
		"SMP": SMP(),
		"SMR": SMR(),
		"SR":  SR(),
		"TH":  Threshold(0.05),
	}
}

// withSim overrides the profiling simulation config.
func withSim(sim arch.SimConfig) Option {
	return func(c *Config) { c.Sim = sim }
}

// epochJSON runs one epoch on a fresh framework and returns the report
// serialized, so reports from different worker counts can be compared
// bytewise.
func epochJSON(t *testing.T, agents int, opts ...Option) []byte {
	t.Helper()
	f, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pop := f.SamplePopulation(agents, Uniform())
	rep, err := f.RunEpoch(pop)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestWorkerCountDeterminism runs the full pipeline — profiling
// campaign, matrix completion, matching, assessment, dispatch — at
// Workers: 1 and Workers: 8 for every policy and two seeds, and requires
// byte-identical epoch reports.
func TestWorkerCountDeterminism(t *testing.T) {
	for name, pol := range sixPolicies() {
		for _, seed := range []int64{3, 27} {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				base := []Option{WithPolicy(pol), WithSeed(seed), withSim(shortSim)}
				a := epochJSON(t, 60, append(base, WithWorkers(1))...)
				b := epochJSON(t, 60, append(base, WithWorkers(8))...)
				if string(a) != string(b) {
					t.Fatalf("epoch reports diverge between Workers:1 and Workers:8\nserial:   %.200s\nparallel: %.200s",
						a, b)
				}
			})
		}
	}
}

// TestWorkerCountDeterminismOracle covers the oracle path (dense penalty
// computation and dispatch, no campaign) at a larger population.
func TestWorkerCountDeterminismOracle(t *testing.T) {
	for _, seed := range []int64{1, 9} {
		base := []Option{WithOracle(), WithSeed(seed)}
		a := epochJSON(t, 200, append(base, WithWorkers(1))...)
		b := epochJSON(t, 200, append(base, WithWorkers(8))...)
		if string(a) != string(b) {
			t.Fatalf("seed %d: oracle epoch reports diverge between worker counts", seed)
		}
	}
}

// TestPairCacheAccounting drives three coordinator epochs and checks the
// pair-penalty cache's books: the dense warm-up is the only miss source,
// so by the third epoch the hit rate must exceed 90%.
func TestPairCacheAccounting(t *testing.T) {
	tel := NewTelemetry()
	f, err := New(WithOracle(), WithSeed(5), WithTelemetry(tel))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	catalog := f.Catalog()
	hits0, misses0 := f.PairCache().Stats()
	if misses0 == 0 {
		t.Fatal("dense warm-up recorded no cache misses")
	}
	if hits0 > misses0 {
		t.Fatalf("warm-up should be miss-dominated: %d hits, %d misses", hits0, misses0)
	}

	var arrivals []coordinator.Arrival
	for i := 0; i < 600; i++ {
		arrivals = append(arrivals, coordinator.Arrival{
			TimeS: float64(i) * 0.01,
			Job:   catalog[i%len(catalog)],
		})
	}
	driver := &Driver{Framework: f, PeriodS: 10, MaxBatch: 200}
	epochs, _, err := driver.Run(arrivals)
	if err != nil {
		t.Fatal(err)
	}
	if len(epochs) != 3 {
		t.Fatalf("got %d epochs, want 3", len(epochs))
	}

	hits, misses := f.PairCache().Stats()
	if misses != misses0 {
		t.Errorf("epochs over a fixed catalog added misses: %d -> %d", misses0, misses)
	}
	if rate := f.PairCache().HitRate(); rate < 0.9 {
		t.Errorf("hit rate after 3 epochs = %.3f (hits %d, misses %d), want >= 0.9",
			rate, hits, misses)
	}
	if snap := tel.Metrics.Snapshot(); snap.Counter("cache.pair_hits") == 0 {
		t.Error("cache.pair_hits counter never incremented")
	}
}

// TestFrameworkClose checks the drain semantics: Close is idempotent,
// and epochs after Close are rejected with ErrClosed.
func TestFrameworkClose(t *testing.T) {
	f, err := New(WithOracle(), WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	pop := f.SamplePopulation(40, Uniform())
	if _, err := f.RunEpoch(pop); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if !f.Closed() {
		t.Error("Closed() = false after Close")
	}
	_, err = f.RunEpoch(pop)
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("RunEpoch after Close = %v, want ErrClosed", err)
	}
}

// TestCancellation checks that every context-aware entry point honors an
// already-fired context and surfaces ErrCanceled.
func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := NewContext(ctx, WithSeed(1), withSim(shortSim)); !errors.Is(err, ErrCanceled) {
		t.Errorf("NewContext with canceled ctx = %v, want ErrCanceled", err)
	}

	f, err := New(WithOracle(), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pop := f.SamplePopulation(40, Uniform())
	if _, err := f.RunEpochContext(ctx, pop); !errors.Is(err, ErrCanceled) {
		t.Errorf("RunEpochContext with canceled ctx = %v, want ErrCanceled", err)
	}

	arrivals, err := PoissonArrivals(0.5, 120, f.Catalog(), Uniform(), stats.NewRand(3))
	if err != nil {
		t.Fatal(err)
	}
	driver := &Driver{Framework: f, PeriodS: 30}
	if _, _, err := driver.RunContext(ctx, arrivals); !errors.Is(err, ErrCanceled) {
		t.Errorf("Driver.RunContext with canceled ctx = %v, want ErrCanceled", err)
	}

	// An un-fired context changes nothing.
	if _, err := f.RunEpoch(pop); err != nil {
		t.Errorf("RunEpoch after cancellation tests: %v", err)
	}
}

// TestSamplePopulationMix pins the exported Mix contract: any
// stats.Sampler — including a caller-defined one — feeds
// SamplePopulation.
func TestSamplePopulationMix(t *testing.T) {
	f, err := New(WithOracle(), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, mix := range []Mix{Uniform(), BetaLow(), BetaHigh(), Gaussian(), midpointMix{}} {
		pop := f.SamplePopulation(30, mix)
		if len(pop.Jobs) != 30 {
			t.Fatalf("mix %s: got %d jobs, want 30", mix.Name(), len(pop.Jobs))
		}
		if pop.Mix != mix.Name() {
			t.Errorf("population mix label = %q, want %q", pop.Mix, mix.Name())
		}
	}
}

// midpointMix is a caller-defined Mix: every draw lands on the median
// job.
type midpointMix struct{}

func (midpointMix) Sample(*rand.Rand) float64 { return 0.5 }
func (midpointMix) Name() string              { return "midpoint" }

// TestErrNoStableMatchingFacade pins the re-exported sentinel: odd
// preference structures surface ErrNoStableMatching through the facade.
func TestErrNoStableMatchingFacade(t *testing.T) {
	// Irving's classic 4-agent instance with no stable assignment.
	prefs := [][]int{
		{1, 2, 3},
		{2, 0, 3},
		{0, 1, 3},
		{0, 1, 2},
	}
	if _, err := StableRoommates(prefs); !errors.Is(err, ErrNoStableMatching) {
		t.Fatalf("StableRoommates = %v, want ErrNoStableMatching", err)
	}
}

// Ensure the report's population survives a JSON round trip (the
// determinism tests depend on marshaling being total).
func TestEpochReportMarshals(t *testing.T) {
	f, err := New(WithOracle(), WithSeed(13))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rep, err := f.RunEpoch(f.SamplePopulation(20, Uniform()))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back EpochReport
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.TruePenalty) != len(rep.TruePenalty) {
		t.Error("round trip lost penalties")
	}
	var _ workload.Population = back.Population
}
