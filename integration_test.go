package cooper

// Integration tests: exercise the full public API end to end — framework
// construction with profiling, epochs under every policy, continuous
// operation through the driver, and the >2-co-runner extension.

import (
	"math/rand"
	"testing"

	"cooper/internal/stats"
)

func TestIntegrationEveryPolicyFullPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline is slow")
	}
	for _, mk := range []func() Policy{Greedy, Complementary, SMP, SMR, SR} {
		pol := mk()
		t.Run(pol.Name(), func(t *testing.T) {
			// Real profiling + prediction path, not the oracle.
			f, err := New(WithPolicy(pol), WithSeed(21))
			if err != nil {
				t.Fatal(err)
			}
			pop := f.SamplePopulation(80, Uniform())
			rep, err := f.RunEpoch(pop)
			if err != nil {
				t.Fatal(err)
			}
			if err := rep.Match.Validate(); err != nil {
				t.Fatal(err)
			}
			matched := 0
			for _, j := range rep.Match {
				if j != Unmatched {
					matched++
				}
			}
			if matched != 80 {
				t.Errorf("matched %d of 80 agents", matched)
			}
			if rep.Cluster.Jobs != 80 {
				t.Errorf("cluster ran %d jobs", rep.Cluster.Jobs)
			}
			if rep.Cluster.MakespanS <= 0 {
				t.Error("no makespan recorded")
			}
			// Agents assessed with predicted penalties; recommendations
			// must cover every agent.
			if len(rep.Recommendations) != 80 {
				t.Errorf("recommendations = %d", len(rep.Recommendations))
			}
		})
	}
}

func TestIntegrationClusteredPolicy(t *testing.T) {
	f, err := New(WithPolicy(Clustered(4)), WithOracle(), WithSeed(22))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.RunEpoch(f.SamplePopulation(60, Gaussian()))
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Match.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestIntegrationThresholdPolicy(t *testing.T) {
	// Threshold leaves contentious agents solo; the framework must still
	// dispatch them (on their own machines).
	f, err := New(WithPolicy(Threshold(0.02)), WithOracle(), WithSeed(23), WithMachines(100))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.RunEpoch(f.SamplePopulation(60, BetaHigh()))
	if err != nil {
		t.Fatal(err)
	}
	solo := 0
	for i, j := range rep.Match {
		if j == Unmatched {
			solo++
			continue
		}
		if rep.TruePenalty[i] > 0.25 {
			t.Errorf("agent %d penalty %.3f far above tolerance", i, rep.TruePenalty[i])
		}
	}
	if solo == 0 {
		t.Error("a contentious mix under a tight threshold should leave solos")
	}
	if rep.Cluster.Jobs != 60 {
		t.Errorf("cluster ran %d jobs, want 60 (solos included)", rep.Cluster.Jobs)
	}
}

func TestIntegrationDriverOverDay(t *testing.T) {
	f, err := New(WithPolicy(SMR()), WithOracle(), WithSeed(24))
	if err != nil {
		t.Fatal(err)
	}
	arrivals, err := PoissonArrivals(0.05, 2*3600, f.Catalog(), Uniform(),
		rand.New(rand.NewSource(25)))
	if err != nil {
		t.Fatal(err)
	}
	driver := &Driver{Framework: f, PeriodS: 600, MaxBatch: 30}
	epochs, summary, err := driver.Run(arrivals)
	if err != nil {
		t.Fatal(err)
	}
	if summary.Jobs != len(arrivals) {
		t.Errorf("driver scheduled %d of %d arrivals", summary.Jobs, len(arrivals))
	}
	if len(epochs) == 0 || summary.MeanPenalty <= 0 {
		t.Errorf("summary = %+v", summary)
	}
}

func TestIntegrationQuads(t *testing.T) {
	f, err := New(WithOracle(), WithSeed(26))
	if err != nil {
		t.Fatal(err)
	}
	pop := f.SamplePopulation(40, Uniform())
	// Build the agent penalty matrix through the public surface: job
	// penalties expanded by name.
	jobs := f.Catalog()
	idx := make(map[string]int, len(jobs))
	for i, j := range jobs {
		idx[j.Name] = i
	}
	jobD := f.TruePenalties()
	d := make([][]float64, len(pop.Jobs))
	for a := range d {
		d[a] = make([]float64, len(pop.Jobs))
		for b := range d[a] {
			if a != b {
				d[a][b] = jobD[idx[pop.Jobs[a].Name]][idx[pop.Jobs[b].Name]]
			}
		}
	}
	groups, err := HierarchicalQuads(d)
	if err != nil {
		t.Fatal(err)
	}
	covered := 0
	for _, g := range groups {
		if len(g) > 4 {
			t.Fatalf("group of %d", len(g))
		}
		covered += len(g)
	}
	if covered != 40 {
		t.Errorf("groups cover %d of 40 agents", covered)
	}
}

func TestIntegrationDeterminism(t *testing.T) {
	run := func() []int {
		f, err := New(WithPolicy(SMR()), WithOracle(), WithSeed(27))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := f.RunEpoch(f.SamplePopulation(50, Uniform()))
		if err != nil {
			t.Fatal(err)
		}
		return rep.Match
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must reproduce the same epoch")
		}
	}
}

func TestIntegrationMixesAffectPenalties(t *testing.T) {
	f, err := New(WithOracle(), WithSeed(28))
	if err != nil {
		t.Fatal(err)
	}
	mean := func(mix Mix) float64 {
		rep, err := f.RunEpoch(f.SamplePopulation(200, mix))
		if err != nil {
			t.Fatal(err)
		}
		return rep.MeanTruePenalty()
	}
	low := mean(BetaLow())
	high := mean(BetaHigh())
	if low >= high {
		t.Errorf("contentious mix should hurt more: low %.4f vs high %.4f", low, high)
	}
}

func TestIntegrationSamplerContract(t *testing.T) {
	// All public mixes satisfy the stats.Sampler contract used by the
	// workload sampler.
	var _ []stats.Sampler = []stats.Sampler{Uniform(), BetaLow(), BetaHigh(), Gaussian()}
}

func TestIntegrationCustomCatalog(t *testing.T) {
	machine := DefaultCMP()
	jobs, err := BuildCatalog(machine, []JobSpec{
		{Name: "api-server", BandwidthGBps: 1.2, RuntimeS: 200},
		{Name: "batch-etl", BandwidthGBps: 16, RuntimeS: 700, WorkingSetMB: 512, MissFloor: 0.7},
		{Name: "transcoder", BandwidthGBps: 4.5, RuntimeS: 300, WorkingSetMB: 32, MissFloor: 0.2},
		{Name: "indexer", BandwidthGBps: 9, RuntimeS: 500, WorkingSetMB: 128, MissFloor: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(WithMachine(machine), WithCatalog(jobs), WithOracle(), WithSeed(30))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Catalog()) != 4 {
		t.Fatalf("catalog = %d jobs", len(f.Catalog()))
	}
	rep, err := f.RunEpoch(f.SamplePopulation(40, Uniform()))
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Match.Validate(); err != nil {
		t.Fatal(err)
	}
	// The contentious custom job should suffer more than the meek one
	// under the stable policy, preserving the fairness property on a
	// user-defined catalog.
	byJob := map[string][]float64{}
	for i, j := range rep.Population.Jobs {
		byJob[j.Name] = append(byJob[j.Name], rep.TruePenalty[i])
	}
	mean := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	if len(byJob["batch-etl"]) > 0 && len(byJob["api-server"]) > 0 {
		if mean(byJob["batch-etl"]) <= mean(byJob["api-server"]) {
			t.Errorf("contentious custom job should pay more: etl %.4f vs api %.4f",
				mean(byJob["batch-etl"]), mean(byJob["api-server"]))
		}
	}
}

func TestIntegrationCustomCatalogProfiled(t *testing.T) {
	// The full profiling + prediction path works on custom catalogs too.
	machine := DefaultCMP()
	jobs, err := BuildCatalog(machine, []JobSpec{
		{Name: "a", BandwidthGBps: 1, RuntimeS: 100},
		{Name: "b", BandwidthGBps: 8, RuntimeS: 200},
		{Name: "c", BandwidthGBps: 20, RuntimeS: 300},
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(WithMachine(machine), WithCatalog(jobs), WithSeed(31), WithSampleFraction(1.0))
	if err != nil {
		t.Fatal(err)
	}
	acc, err := f.PredictionAccuracy()
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.5 {
		t.Errorf("fully profiled 3-job catalog accuracy = %v", acc)
	}
}
