// Command bench-compare gates the parallel pipeline against its serial
// counterpart: it benchmarks the profiling campaign and the epoch
// pipeline at Workers:1 and Workers:8 and exits non-zero if the parallel
// legs regress. It also gates the flat prediction kernel against the
// retained naive reference kernel, and the LSH-bucketed approximate
// kernel against the exact flat kernel — top-K recall at n=400 plus a
// speedup floor at n=2000 (-recommend-only runs the kernel gates,
// -approx-only just the approximate one; -recommend-out snapshots the
// kernel legs to BENCH_recommend.json).
//
// The parallel gate is core-count aware. Parallelism cannot beat the
// serial path on a single-core host, so at GOMAXPROCS=1 the gate only
// requires that the fan-out machinery stays within a noise allowance of
// serial; with 2+ cores it also demands a real campaign speedup, scaled
// to the cores available (the campaign's profiling runs are independent
// simulations, so it is the leg that must scale). The kernel gate is a
// single-thread representation comparison — both legs run Workers:1 —
// so its speedup floor holds on any host.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"cooper/internal/arch"
	"cooper/internal/audit"
	"cooper/internal/core"
	"cooper/internal/profiler"
	"cooper/internal/recommend"
	"cooper/internal/stats"
	"cooper/internal/telemetry"
	"cooper/internal/workload"
)

// overheadAllowance is how much slower than serial the parallel leg may
// run before the gate fails (benchmark noise plus pool bookkeeping).
const overheadAllowance = 1.15

// kernelSpeedupFloor is what the flat prediction kernel must deliver
// over the reference kernel at n=400, single thread (the acceptance
// target; smaller sizes are reported but not gated — fixed costs
// dominate there).
const kernelSpeedupFloor = 2.0

// approxSpeedupFloor is what the LSH-bucketed approximate kernel must
// deliver over the exact flat kernel at n=2000, single thread, and
// approxRecallFloor how much of the exact kernel's per-row top-10
// lowest-penalty neighbors it must recover at n=400 (the bounded
// equivalence contract — same floor the package's recall-gate test
// pins across matrix shapes).
const (
	approxSpeedupFloor = 5.0
	approxRecallFloor  = 0.95
	approxRecallN      = 400
	approxRecallTopK   = 10
	approxBenchN       = 2000
	approxOnlyN        = 5000
)

// The streaming-market gate: at rematchN agents with rematchChurn of
// the population churning per epoch, an incremental repair epoch must
// beat an identical forced-full re-match epoch by rematchSpeedupFloor,
// and the repair leg's flight log must audit with zero violations.
const (
	rematchN            = 5000
	rematchChurn        = 0.02
	rematchSpeedupFloor = 5.0
)

func main() {
	recommendOnly := flag.Bool("recommend-only", false,
		"run only the prediction-kernel gate (exact and approximate legs)")
	approxOnly := flag.Bool("approx-only", false,
		"run only the approximate-kernel gate (top-K recall at n=400, "+
			"speedup floor over exact at n=2000)")
	recommendOut := flag.String("recommend-out", "",
		"write the kernel benchmark snapshot to this JSON file")
	rematchOnly := flag.Bool("rematch-only", false,
		"run only the streaming-market gate: incremental repair vs forced "+
			"full re-match under churn, plus a zero-violation audit of the "+
			"repair leg's flight log")
	rematchOut := flag.String("rematch-out", "",
		"write the streaming-market benchmark snapshot to this JSON file")
	flag.Parse()

	if *rematchOnly {
		if !rematchGate(*rematchOut) {
			os.Exit(1)
		}
		fmt.Println("bench-compare: PASS")
		return
	}
	if *approxOnly {
		// The CI gate: floors only, no n=5000 snapshot leg (that row is
		// refreshed by -recommend-only with -recommend-out, and gates
		// nothing).
		if ok, _, _ := approxGate(false); !ok {
			os.Exit(1)
		}
		fmt.Println("bench-compare: PASS")
		return
	}
	if *recommendOnly {
		if !recommendGate(*recommendOut) {
			os.Exit(1)
		}
		fmt.Println("bench-compare: PASS")
		return
	}

	cmp := arch.DefaultCMP()
	catalog, err := workload.Catalog(cmp)
	if err != nil {
		fatal(err)
	}

	campaign := func(workers int) func(b *testing.B) {
		return func(b *testing.B) {
			sim := arch.SimConfig{DurationS: 30, StepS: 1, PhaseNoise: 0.05, PhaseCorr: 0.6}
			for i := 0; i < b.N; i++ {
				p := profiler.New(cmp, profiler.NewDatabase(), 7)
				p.Sim = sim
				p.Workers = workers
				if err := p.CampaignContext(context.Background(), catalog, 0.25); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	epochs := func(workers int) func(b *testing.B) {
		return func(b *testing.B) {
			f, err := core.NewFramework(core.Config{Seed: 31,
				Pipeline: core.PipelineConfig{Oracle: true, Workers: workers}})
			if err != nil {
				b.Fatal(err)
			}
			defer f.Close()
			pop := f.SamplePopulation(400, stats.Uniform{})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := f.RunEpoch(pop); err != nil {
					b.Fatal(err)
				}
			}
		}
	}

	cores := runtime.GOMAXPROCS(0)
	fmt.Printf("bench-compare: GOMAXPROCS=%d, overhead allowance %.0f%%\n",
		cores, (overheadAllowance-1)*100)

	// Only the campaign leg carries a speedup floor: its profiling runs
	// are embarrassingly parallel, while the epoch pipeline includes the
	// inherently serial matching phase and is gated on overhead only.
	ok := true
	ok = gate("profiling campaign", campaign(1), campaign(8), cores, true) && ok
	ok = gate("epoch pipeline", epochs(1), epochs(8), cores, false) && ok
	ok = recommendGate(*recommendOut) && ok
	if !ok {
		os.Exit(1)
	}
	fmt.Println("bench-compare: PASS")
}

// kernelBench is one leg of the kernel snapshot written to
// BENCH_recommend.json.
type kernelBench struct {
	Name       string `json:"name"`
	Kernel     string `json:"kernel"`
	N          int    `json:"n"`
	Iterations int    `json:"iterations"`
	NsPerOp    int64  `json:"ns_per_op"`
}

// sparseMatrix builds the deterministic benchmark input: an n×n penalty-
// shaped matrix with 25% of its symmetric pairs observed, matching the
// paper's operating-point sampling fraction.
func sparseMatrix(n int) [][]float64 {
	r := rand.New(rand.NewSource(int64(n)))
	dense := make([][]float64, n)
	for i := range dense {
		dense[i] = make([]float64, n)
		for j := range dense[i] {
			dense[i][j] = -0.05 + 0.05*float64(r.Intn(16))
		}
	}
	return recommend.MaskPairs(dense, 0.25, r)
}

// benchComplete benchmarks one Complete pass of p over m.
func benchComplete(p recommend.Predictor, m [][]float64) func(b *testing.B) {
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := p.Complete(m); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// approxGate gates the LSH-bucketed approximate kernel against the
// exact flat kernel, both single-threaded so the floors are
// host-independent: the approximate leg must recover approxRecallFloor
// of the exact per-row top-K lowest-penalty neighbors at n=400 and
// clear approxSpeedupFloor at n=2000. With snapshotLegs, the n=5000
// approximate-only row is also benchmarked — the exact all-pairs scan
// is deliberately skipped there (it is the quadratic cost the
// approximation exists to avoid), and the skip is logged and recorded
// in the snapshot's skips list. The returned rows and speedup/recall
// entries feed the BENCH_recommend.json snapshot.
func approxGate(snapshotLegs bool) (bool, []kernelBench, map[string]float64) {
	ok := true
	exact := recommend.Default()
	exact.Workers = 1
	appr := exact
	appr.Approx = recommend.DefaultApprox()
	kernel := appr.KernelName()

	// Recall leg: the bounded equivalence contract on the benchmark's
	// own matrix shape.
	m := sparseMatrix(approxRecallN)
	exactOut, _, err := exact.Complete(m)
	if err != nil {
		fatal(err)
	}
	approxOut, _, err := appr.Complete(m)
	if err != nil {
		fatal(err)
	}
	recall := recommend.TopKRecall(exactOut, approxOut, approxRecallTopK)
	fmt.Printf("bench-compare: approx  n=%-4d      top-%d recall %.4f (floor %.2f)\n",
		approxRecallN, approxRecallTopK, recall, approxRecallFloor)
	if recall < approxRecallFloor {
		fmt.Printf("bench-compare: FAIL: approx top-%d recall %.4f at n=%d below the %.2f floor\n",
			approxRecallTopK, recall, approxRecallN, approxRecallFloor)
		ok = false
	}

	// Speed legs: exact vs approximate at n=2000, approximate alone at
	// n=5000.
	m2 := sparseMatrix(approxBenchN)
	fr := testing.Benchmark(benchComplete(exact, m2))
	ar := testing.Benchmark(benchComplete(appr, m2))
	speedup := float64(fr.NsPerOp()) / float64(ar.NsPerOp())
	fmt.Printf("bench-compare: approx  n=%-4d      exact %12d ns/op, approx %12d ns/op, speedup %.2fx\n",
		approxBenchN, fr.NsPerOp(), ar.NsPerOp(), speedup)
	if speedup < approxSpeedupFloor {
		fmt.Printf("bench-compare: FAIL: approx speedup %.2fx at n=%d below the %.1fx floor\n",
			speedup, approxBenchN, approxSpeedupFloor)
		ok = false
	}
	rows := []kernelBench{
		{fmt.Sprintf("BenchmarkCompleteFlat/n=%d", approxBenchN), "flat", approxBenchN, fr.N, fr.NsPerOp()},
		{fmt.Sprintf("BenchmarkCompleteApprox/n=%d", approxBenchN), kernel, approxBenchN, ar.N, ar.NsPerOp()},
	}
	if snapshotLegs {
		fmt.Printf("bench-compare: approx  n=%-4d      exact leg skipped (the quadratic all-pairs scan "+
			"is what the approximation avoids); approx leg only\n", approxOnlyN)
		m5 := sparseMatrix(approxOnlyN)
		a5 := testing.Benchmark(benchComplete(appr, m5))
		fmt.Printf("bench-compare: approx  n=%-4d      approx %12d ns/op\n", approxOnlyN, a5.NsPerOp())
		rows = append(rows,
			kernelBench{fmt.Sprintf("BenchmarkCompleteApprox/n=%d", approxOnlyN), kernel, approxOnlyN, a5.N, a5.NsPerOp()})
	}
	extras := map[string]float64{
		fmt.Sprintf("approx_n%d", approxBenchN):         float64(int(speedup*100)) / 100,
		fmt.Sprintf("approx_recall_n%d", approxRecallN): float64(int(recall*1e4)) / 1e4,
	}
	return ok, rows, extras
}

// recommendGate benchmarks the flat prediction kernel against the
// retained naive reference kernel at Workers:1 across the snapshot
// sizes, runs the approximate-kernel gate, optionally writes
// BENCH_recommend.json, and fails unless the n=400 flat speedup clears
// kernelSpeedupFloor and the approximate legs clear their floors. All
// legs run single-threaded, so the comparison measures representation,
// not parallelism, and the floors are host-independent.
func recommendGate(outPath string) bool {
	bench := benchComplete

	sizes := []int{20, 100, 400}
	var benches []kernelBench
	speedups := map[string]float64{}
	ok := true
	for _, n := range sizes {
		m := sparseMatrix(n)
		flat := recommend.Default()
		flat.Workers = 1
		ref := flat.WithReferenceKernel()
		fr := testing.Benchmark(bench(flat, m))
		rr := testing.Benchmark(bench(ref, m))
		speedup := float64(rr.NsPerOp()) / float64(fr.NsPerOp())
		fmt.Printf("bench-compare: kernel n=%-3d       reference %12d ns/op, flat %12d ns/op, speedup %.2fx\n",
			n, rr.NsPerOp(), fr.NsPerOp(), speedup)
		benches = append(benches,
			kernelBench{fmt.Sprintf("BenchmarkCompleteReference/n=%d", n), "reference", n, rr.N, rr.NsPerOp()},
			kernelBench{fmt.Sprintf("BenchmarkCompleteFlat/n=%d", n), "flat", n, fr.N, fr.NsPerOp()})
		speedups[fmt.Sprintf("n%d", n)] = float64(int(speedup*100)) / 100
		if n == 400 && speedup < kernelSpeedupFloor {
			fmt.Printf("bench-compare: FAIL: kernel speedup %.2fx at n=400 below the %.1fx floor\n",
				speedup, kernelSpeedupFloor)
			ok = false
		}
	}

	aok, arows, aextras := approxGate(true)
	ok = aok && ok
	benches = append(benches, arows...)
	for k, v := range aextras {
		speedups[k] = v
	}

	if outPath != "" {
		snapshot := map[string]any{
			"description": "Naive reference vs flat prediction kernel, plus the flat kernel vs " +
				"its LSH-bucketed approximate path (matrix completion, 25% observed pairs, " +
				"Workers:1 all legs). The flat kernel's win is representational — " +
				"bitset-masked word scans, incremental similarity invalidation, " +
				"allocation-free top-K — and the approximate leg's win is sublinear " +
				"candidate generation (SimHash banding), so the speedups are core-count " +
				"independent; rerun `make bench-recommend` to refresh this snapshot.",
			"skips": []string{fmt.Sprintf(
				"BenchmarkCompleteReference/n=%d, n=%d and BenchmarkCompleteFlat/n=%d: "+
					"exact legs at n=%d (and the reference kernel beyond n=400) are the "+
					"quadratic costs the approximate kernel avoids; only the approximate "+
					"leg is benchmarked there",
				approxBenchN, approxOnlyN, approxOnlyN, approxOnlyN)},
			"host": map[string]any{
				"goos":       runtime.GOOS,
				"goarch":     runtime.GOARCH,
				"cpu":        cpuModel(),
				"gomaxprocs": runtime.GOMAXPROCS(0),
			},
			"benchmarks": benches,
			"speedup":    speedups,
		}
		data, err := json.MarshalIndent(snapshot, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("bench-compare: wrote %s\n", outPath)
	}
	return ok
}

// rematchLeg is one epoch's timing inside the streaming-market gate.
type rematchLeg struct {
	Epoch        int     `json:"epoch"`
	Mode         string  `json:"mode"`
	MS           float64 `json:"ms"`
	Neighborhood int     `json:"neighborhood,omitempty"`
	Changed      int     `json:"changed,omitempty"`
}

// runRematchLeg plays the shared churn trace — a cold-start epoch
// admitting the whole population, then two epochs churning
// rematchChurn·n agents each — through a streaming framework. With
// forceFull, the churn threshold is set so low that every epoch
// re-matches from scratch: the control the repair leg is gated against.
// The churn trace, population, and seed are identical across legs.
func runRematchLeg(forceFull bool) ([]rematchLeg, []telemetry.Event, error) {
	tel := telemetry.New()
	tel.Events = telemetry.NewEventRing(1 << 16)
	cfg := core.Config{
		Seed:     17,
		Market:   core.MarketConfig{Rematch: true},
		Pipeline: core.PipelineConfig{Oracle: true},
		Observe:  core.ObserveConfig{Telemetry: tel},
	}
	if forceFull {
		// Any churn at all trips a full re-match; the trace below keeps
		// the default 10% threshold's repair leg in repair mode.
		cfg.Market.ChurnThreshold = 1e-9
	}
	fw, err := core.NewFramework(cfg)
	if err != nil {
		return nil, nil, err
	}
	defer fw.Close()
	pop := fw.SamplePopulation(rematchN, stats.Uniform{})
	k := int(rematchChurn * rematchN)

	var legs []rematchLeg
	var rep *core.EpochReport
	for e := 0; e < 3; e++ {
		churn := core.Churn{Join: pop.Jobs}
		if e > 0 {
			churn = core.Churn{Join: pop.Jobs[:k], Depart: rep.AgentIDs[:k]}
		}
		start := time.Now()
		rep, err = fw.StreamEpoch(churn)
		if err != nil {
			return nil, nil, err
		}
		legs = append(legs, rematchLeg{
			Epoch:        e,
			Mode:         rep.Rematch.Mode,
			MS:           float64(time.Since(start).Microseconds()) / 1000,
			Neighborhood: rep.Rematch.Neighborhood,
			Changed:      rep.Rematch.Changed,
		})
	}
	return legs, tel.Events.Events(), nil
}

// rematchGate gates the streaming market: at rematchN agents with
// rematchChurn of the population churning per epoch, the mean
// incremental-repair epoch must beat the mean forced-full epoch over
// the identical churn trace by rematchSpeedupFloor, and the repair
// leg's flight log must replay through the invariant auditor with zero
// violations.
func rematchGate(outPath string) bool {
	repair, events, err := runRematchLeg(false)
	if err != nil {
		fatal(err)
	}
	full, _, err := runRematchLeg(true)
	if err != nil {
		fatal(err)
	}

	ok := true
	var repairMS, fullMS float64
	for i := 1; i < len(repair); i++ {
		if repair[i].Mode != "repair" {
			fmt.Printf("bench-compare: FAIL: repair-leg epoch %d ran %q, want repair (trace under threshold)\n",
				i, repair[i].Mode)
			ok = false
		}
		if full[i].Mode != "full" {
			fmt.Printf("bench-compare: FAIL: full-leg epoch %d ran %q, want full (forced threshold)\n",
				i, full[i].Mode)
			ok = false
		}
		repairMS += repair[i].MS
		fullMS += full[i].MS
	}
	repairMS /= float64(len(repair) - 1)
	fullMS /= float64(len(full) - 1)
	speedup := fullMS / repairMS
	fmt.Printf("bench-compare: rematch n=%d churn %.0f%%: full %9.1f ms/epoch, repair %9.1f ms/epoch, speedup %.2fx (nbhd %d of %d)\n",
		rematchN, rematchChurn*100, fullMS, repairMS, speedup, repair[1].Neighborhood, rematchN)
	if speedup < rematchSpeedupFloor {
		fmt.Printf("bench-compare: FAIL: repair speedup %.2fx below the %.1fx floor\n",
			speedup, rematchSpeedupFloor)
		ok = false
	}

	rep := audit.Replay(events, audit.Options{})
	fmt.Printf("bench-compare: rematch audit: %d events, %d epochs, %d violations\n",
		rep.Events, rep.Epochs, len(rep.Violations))
	if !rep.OK() {
		for _, v := range rep.Violations {
			fmt.Printf("bench-compare: FAIL: audit: %v\n", v)
		}
		ok = false
	}

	if outPath != "" {
		snapshot := map[string]any{
			"description": fmt.Sprintf("Streaming market under churn: %d agents, %.0f%% of the "+
				"population joining and departing per epoch (oracle penalties, SMR policy, "+
				"seed 17). The repair leg absorbs each epoch's churn by incremental "+
				"neighborhood repair; the full leg replays the identical trace with the "+
				"churn threshold forced to zero so every epoch re-matches from scratch. "+
				"Rerun `make bench-rematch` to refresh this snapshot.",
				rematchN, rematchChurn*100),
			"host": map[string]any{
				"goos":       runtime.GOOS,
				"goarch":     runtime.GOARCH,
				"cpu":        cpuModel(),
				"gomaxprocs": runtime.GOMAXPROCS(0),
			},
			"agents":           rematchN,
			"churn":            rematchChurn,
			"repair_epochs":    repair,
			"full_epochs":      full,
			"repair_ms":        float64(int(repairMS*1000)) / 1000,
			"full_ms":          float64(int(fullMS*1000)) / 1000,
			"speedup":          float64(int(speedup*100)) / 100,
			"audit_events":     rep.Events,
			"audit_violations": len(rep.Violations),
		}
		data, err := json.MarshalIndent(snapshot, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("bench-compare: wrote %s\n", outPath)
	}
	return ok
}

// cpuModel best-effort reads the CPU model string for the snapshot's
// host stanza; empty when the platform does not expose /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return ""
}

// gate benchmarks the two legs and applies the core-count-aware check:
// every leg must stay within the overhead allowance, and legs with
// requireSpeedup must also reach minSpeedup(cores).
func gate(name string, serial, parallel func(b *testing.B), cores int, requireSpeedup bool) bool {
	sNs := float64(testing.Benchmark(serial).NsPerOp())
	pNs := float64(testing.Benchmark(parallel).NsPerOp())
	speedup := sNs / pNs
	fmt.Printf("bench-compare: %-18s serial %12.0f ns/op, parallel %12.0f ns/op, speedup %.2fx\n",
		name, sNs, pNs, speedup)
	if pNs > sNs*overheadAllowance {
		fmt.Printf("bench-compare: FAIL: %s parallel leg is %.0f%% slower than serial\n",
			name, (pNs/sNs-1)*100)
		return false
	}
	if min := minSpeedup(cores); requireSpeedup && speedup < min {
		fmt.Printf("bench-compare: FAIL: %s speedup %.2fx below the %.1fx floor for %d cores\n",
			name, speedup, min, cores)
		return false
	}
	return true
}

// minSpeedup is the speedup floor the gate demands from each leg, scaled
// to the host: 2x with 8+ cores (the acceptance target at 8 workers),
// 1.3x with 2-7, none on a single core where parallel cannot win.
func minSpeedup(cores int) float64 {
	switch {
	case cores >= 8:
		return 2.0
	case cores >= 2:
		return 1.3
	default:
		return 0
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench-compare:", err)
	os.Exit(1)
}
