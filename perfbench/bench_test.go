package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"cooper/internal/arch"
	"cooper/internal/core"
	"cooper/internal/matching"
	"cooper/internal/workload"
)

// tiny returns each workload at a size that runs in a second or two but
// still takes every path of the full-size run: stream-20k's churn is
// sized so its epochs alternate repairs and full clears.
func tiny() map[string]workloadRunner {
	return map[string]workloadRunner{
		"clear-2k":   clearWorkload{Agents: 40, QualityEpochs: 2},
		"stream-20k": streamWorkload{Agents: 400, Shards: 4, ChurnPct: 5, QualityEpochs: 3, SetupRepeats: 2},
		"wire-2":     wireWorkload{EpochsPerRound: 5, Pairs: 3},
	}
}

func TestMeasuredRunsPassOutputChecks(t *testing.T) {
	for name, w := range tiny() {
		t.Run(name, func(t *testing.T) {
			res, err := runMeasured(w, 7, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			for _, m := range benchmarkFile(t).EndToEnd {
				v, ok := res.Metrics[m.Name]
				if !ok || v.Unit != m.Unit {
					t.Errorf("metric %s missing or not in %s: %+v", m.Name, m.Unit, v)
				}
				if v.Value <= 0 {
					t.Errorf("metric %s = %v, want a positive value", m.Name, v.Value)
				}
			}
			if len(res.Metrics) != len(benchmarkFile(t).EndToEnd) {
				t.Errorf("reported %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(benchmarkFile(t).EndToEnd))
			}
		})
	}
}

func TestQualityRepeatsForTheSameSeed(t *testing.T) {
	for name, w := range tiny() {
		t.Run(name, func(t *testing.T) {
			a, err := w.measure(3, 0)
			if err != nil {
				t.Fatal(err)
			}
			b, err := w.measure(3, 50*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if a.quality != b.quality {
				t.Fatalf("same seed, different quality: %+v vs %+v", a.quality, b.quality)
			}
		})
	}
}

func TestTracedRunReproducesUntracedMatchings(t *testing.T) {
	for name, w := range tiny() {
		t.Run(name, func(t *testing.T) {
			tr := newTracer()
			lr, err := w.traced(5, 0, tr)
			if err != nil {
				t.Fatal(err)
			}
			if lr.mismatch != "" {
				t.Fatal(lr.mismatch)
			}
			if lr.failed != 0 {
				t.Fatalf("%d failed checks: %v", lr.failed, lr.failures)
			}
			if lr.untracedP50 <= 0 || lr.recorderOffP50 <= 0 {
				t.Fatalf("leg medians %v (on) and %v (off)", lr.untracedP50, lr.recorderOffP50)
			}
			stats, attributed := tr.layerStats()
			if len(attributed) == 0 || stats[epochSpan].epochs == 0 {
				t.Fatal("no traced epochs")
			}
			for _, layer := range wantLayers[name] {
				if stats[layer].median <= 0 {
					t.Errorf("layer %s has no self time", layer)
				}
			}
			if name == "stream-20k" && (lr.values["rematch.full_share"] == 0 || lr.values["rematch.neighborhood"] == 0) {
				t.Errorf("composed stream took only one of the full and repair paths: %v", lr.values)
			}
		})
	}
}

// wantLayers are the layers each workload must show self time in.
var wantLayers = map[string][]string{
	"clear-2k":   {"policy.assign", "agent.exchange", "profiler.expand", "policy.true_penalties", "cluster.dispatch", "profiler.campaign"},
	"stream-20k": {"policy.assign", "shard.clear", "shard.repair", "shard.partition", "rematch.apply", "rematch.recommendations", "cluster.dispatch"},
	"wire-2":     {"netproto.server_epoch", "netproto.client_epoch", "policy.assign"},
}

func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	dir := t.TempDir()
	res, err := runTraced(tiny()["clear-2k"], "clear-2k", 1, 0, dir, describeHost("clear-2k", 1))
	if err != nil || !res.Correct {
		t.Fatalf("correct=%v err=%v", res.Correct, err)
	}
	want := benchmarkFile(t).PerLayer
	if len(res.Metrics) != len(want) {
		t.Errorf("reported %d per-layer metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		if v, ok := res.Metrics[m.Name]; !ok || v.Unit != m.Unit {
			t.Errorf("per-layer metric %s missing or not in %s", m.Name, m.Unit)
		}
	}
	for _, f := range []string{"clear-2k-seed1.trace.json", "clear-2k-seed1.selftime.txt"} {
		if st, err := os.Stat(filepath.Join(dir, f)); err != nil || st.Size() == 0 {
			t.Errorf("trace output %s missing: %v", f, err)
		}
	}
}

func TestChecksCatchBrokenOutputs(t *testing.T) {
	rep := &core.EpochReport{
		Match:            matching.Matching{1, 0, 2},
		TruePenalty:      make([]float64, 3),
		PredictedPenalty: make([]float64, 3),
	}
	if checkReport(rep, 3) == "" {
		t.Error("self-matched agent passed the matching check")
	}
	rep.Match = matching.Matching{1, 0, matching.Unmatched}
	if checkReport(rep, 3) == "" {
		t.Error("missing recommendations passed the length check")
	}

	jobs := workload.MustCatalog(arch.DefaultCMP())[:3]
	r := newRoster()
	r.apply(core.Churn{Join: jobs})
	r.apply(core.Churn{Depart: []int{1}})
	good := &core.EpochReport{AgentIDs: []int{0, 2}}
	good.Population.Jobs = []workload.Job{jobs[0], jobs[2]}
	if msg := r.check(good); msg != "" {
		t.Fatalf("true roster rejected: %s", msg)
	}
	stale := &core.EpochReport{AgentIDs: []int{0, 1}, Population: good.Population}
	if r.check(stale) == "" {
		t.Error("roster still holding a departed agent passed")
	}
	swapped := &core.EpochReport{AgentIDs: []int{0, 2}}
	swapped.Population.Jobs = []workload.Job{jobs[2], jobs[0]}
	if r.check(swapped) == "" {
		t.Error("roster with agents running the wrong jobs passed")
	}
}

func TestSelfTimesSubtractChildrenAndMergeOverlaps(t *testing.T) {
	tr := newTracer()
	add := func(name string, epoch, parent int, lo, hi time.Duration) int {
		tr.spans = append(tr.spans, span{name: name, epoch: epoch, parent: parent, start: lo, end: hi})
		return len(tr.spans) - 1
	}
	root := add(epochSpan, 1, -1, 0, 100)
	clear := add("shard.clear", 1, root, 10, 90)
	add("policy.assign", 1, clear, 20, 60) // two workers at once
	add("policy.assign", 1, clear, 30, 70)
	add("side", 1, -1, 0, 100)
	tr.side["side"] = true
	self := tr.selfTimes()[1]
	for name, want := range map[string]time.Duration{
		epochSpan:       20, // 0-10 and 90-100
		"shard.clear":   30, // 80 minus the 50 the assigns cover
		"policy.assign": 50,
	} {
		if self[name] != want {
			t.Errorf("%s self time %v, want %v", name, self[name], want)
		}
	}
	_, attributed := tr.layerStats()
	if len(attributed) != 1 || attributed[0] != (80*time.Nanosecond).Seconds() {
		t.Errorf("attributed %v, want 80ns", attributed)
	}
}

// benchmarkSpec is the part of BENCHMARK.json the tests check against.
type benchmarkSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func benchmarkFile(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}
