package cooper

import (
	"math/rand"
	"testing"
)

func TestFacadeEndToEnd(t *testing.T) {
	f, err := New(WithPolicy(SMR()), WithOracle(), WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	pop := f.SamplePopulation(60, Uniform())
	rep, err := f.RunEpoch(pop)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Match.Validate(); err != nil {
		t.Fatal(err)
	}
	if rep.MeanTruePenalty() <= 0 {
		t.Error("epoch should report penalties")
	}
}

func TestFacadePolicies(t *testing.T) {
	names := map[string]Policy{
		"GR":  Greedy(),
		"CO":  Complementary(),
		"SMP": SMP(),
		"SMR": SMR(),
		"SR":  SR(),
	}
	for want, p := range names {
		if p.Name() != want {
			t.Errorf("policy %q has name %q", want, p.Name())
		}
		byName, err := PolicyByName(want)
		if err != nil {
			t.Errorf("PolicyByName(%q): %v", want, err)
			continue
		}
		if byName.Name() != want {
			t.Errorf("ByName(%q).Name() = %q", want, byName.Name())
		}
	}
}

func TestFacadeMixes(t *testing.T) {
	for _, m := range []Mix{Uniform(), BetaLow(), BetaHigh(), Gaussian()} {
		if m.Name() == "" {
			t.Error("mix has empty name")
		}
		r := rand.New(rand.NewSource(1))
		for i := 0; i < 100; i++ {
			if v := m.Sample(r); v < 0 || v >= 1 {
				t.Fatalf("%s sample %v out of range", m.Name(), v)
			}
		}
	}
}

func TestFacadeMatchingAndGames(t *testing.T) {
	match, err := StableMarriage([][]int{{0, 1}, {1, 0}}, [][]int{{0, 1}, {1, 0}})
	if err != nil || match[0] != 0 || match[1] != 1 {
		t.Errorf("marriage = %v, err = %v", match, err)
	}
	roommates, err := StableRoommates([][]int{{1}, {0}})
	if err != nil || roommates[0] != 1 {
		t.Errorf("roommates = %v, err = %v", roommates, err)
	}
	phi, err := Shapley(2, func(c []int) float64 { return float64(len(c)) })
	if err != nil || phi[0] != 1 || phi[1] != 1 {
		t.Errorf("shapley = %v, err = %v", phi, err)
	}
	d := [][]float64{{0, 0.1}, {0.1, 0}}
	if pairs := BlockingPairs(Matching{Unmatched, Unmatched}, d, 0); len(pairs) != 0 {
		t.Errorf("solo agents blocking: %v", pairs)
	}
}

func TestFacadeCatalogAndPrediction(t *testing.T) {
	jobs, err := Catalog(DefaultCMP())
	if err != nil || len(jobs) != 20 {
		t.Fatalf("catalog: %d jobs, err %v", len(jobs), err)
	}
	truth := [][]float64{{0, 0.1}, {0.2, 0}}
	acc, err := PreferenceAccuracy(truth, truth)
	if err != nil || acc != 1 {
		t.Errorf("accuracy = %v, err = %v", acc, err)
	}
	if DefaultPredictor().MaxIters != 3 {
		t.Error("default predictor should allow 3 iterations")
	}
}

func TestFacadeTelemetrySnapshot(t *testing.T) {
	tel := NewTelemetry()
	f, err := New(WithSeed(9), WithTelemetry(tel))
	if err != nil {
		t.Fatal(err)
	}
	pop := f.SamplePopulation(32, Uniform())
	if _, err := f.RunEpoch(pop); err != nil {
		t.Fatal(err)
	}
	snap := f.Snapshot()

	if got := snap.Counter("epoch.count"); got != 1 {
		t.Errorf("epoch.count = %d, want 1", got)
	}
	if got := snap.Counter("epoch.agents"); got != 32 {
		t.Errorf("epoch.agents = %d, want 32", got)
	}
	if snap.Counter("profile.records") == 0 {
		t.Error("profiling campaign recorded no profile.records")
	}
	if snap.Counter("predict.fill_iters") == 0 {
		t.Error("predictor recorded no fill iterations")
	}
	if snap.Counter("match.proposals") == 0 {
		t.Error("matching recorded no proposals")
	}
	if snap.Counter("arch.solver_calls") == 0 {
		t.Error("contention solver recorded no calls")
	}

	// Every pipeline phase must appear in the span tree with a positive
	// duration, and each traced phase also lands in a timing histogram.
	covered := tel.Trace.CoveredPhases()
	if len(covered) != 6 {
		t.Fatalf("covered phases = %v, want all six", covered)
	}
	for _, phase := range covered {
		h, ok := snap.Histograms["phase."+phase+"_s"]
		if !ok || h.Count == 0 {
			t.Errorf("phase %s has no timing histogram observations", phase)
		}
		if ok && h.Sum <= 0 {
			t.Errorf("phase %s recorded non-positive total duration %v", phase, h.Sum)
		}
	}

	// A disabled framework yields an empty snapshot without panicking.
	f2, err := New(WithOracle(), WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	empty := f2.Snapshot()
	if len(empty.Counters) != 0 || empty.Trace != nil {
		t.Errorf("disabled telemetry snapshot not empty: %+v", empty)
	}
}
