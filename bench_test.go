package cooper

// The benchmark harness: one Benchmark per table and figure in the
// paper's evaluation, plus the overhead claims of §IV. Each benchmark
// runs the corresponding experiment end to end and reports its headline
// statistic as a custom metric, so
//
//	go test -bench=. -benchmem
//
// regenerates the paper's artifacts in one pass. Benchmarks run at a
// reduced scale (hundreds of agents, a handful of populations) to keep a
// full sweep under a minute; cmd/cooper-sim runs them at paper scale.

import (
	"context"
	"os"
	"sync"
	"testing"

	"cooper/internal/arch"
	"cooper/internal/experiments"
	"cooper/internal/matching"
	"cooper/internal/policy"
	"cooper/internal/profiler"
	"cooper/internal/recommend"
	"cooper/internal/stats"
	"cooper/internal/workload"
)

var (
	benchLabOnce sync.Once
	benchLab     *experiments.Lab
)

func getLab(b *testing.B) *experiments.Lab {
	b.Helper()
	benchLabOnce.Do(func() {
		l, err := experiments.NewLab()
		if err != nil {
			b.Fatal(err)
		}
		benchLab = l
	})
	return benchLab
}

// BenchmarkTable1Catalog regenerates Table I: catalog calibration plus
// standalone bandwidth measurement for all 20 jobs.
func BenchmarkTable1Catalog(b *testing.B) {
	l := getLab(b)
	var maxErr float64
	for i := 0; i < b.N; i++ {
		rows := l.Table1()
		maxErr = 0
		for _, r := range rows {
			e := (r.MeasuredGBps - r.PaperGBps) / (r.PaperGBps + 1e-9)
			if e < 0 {
				e = -e
			}
			if e > maxErr {
				maxErr = e
			}
		}
	}
	b.ReportMetric(maxErr*100, "max-calib-err-%")
}

// BenchmarkFigure1Unfairness regenerates Figure 1: per-application
// penalties under the conventional GR and CO policies, reporting how
// weakly penalty tracks contentiousness.
func BenchmarkFigure1Unfairness(b *testing.B) {
	l := getLab(b)
	var grCorr, coCorr float64
	for i := 0; i < b.N; i++ {
		results, err := l.Figure7(400, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			switch r.Policy {
			case "GR":
				grCorr = r.FairnessCorr
			case "CO":
				coCorr = r.FairnessCorr
			}
		}
	}
	b.ReportMetric(grCorr, "GR-fairness-corr")
	b.ReportMetric(coCorr, "CO-fairness-corr")
}

// BenchmarkFigure2Motivation regenerates Figure 2: the four-user
// comparison of performance- and stability-optimal colocations.
func BenchmarkFigure2Motivation(b *testing.B) {
	l := getLab(b)
	var blocking float64
	for i := 0; i < b.N; i++ {
		m, err := l.Motivation()
		if err != nil {
			b.Fatal(err)
		}
		blocking = float64(m.PerformanceBlocking - m.StabilityBlocking)
	}
	b.ReportMetric(blocking, "blocking-pairs-removed")
}

// BenchmarkFigure3Fairness regenerates Figure 3: stability's fairness
// gain over performance-centric colocation for the same four users.
func BenchmarkFigure3Fairness(b *testing.B) {
	l := getLab(b)
	var gain float64
	for i := 0; i < b.N; i++ {
		m, err := l.Motivation()
		if err != nil {
			b.Fatal(err)
		}
		gain = m.StabilityFairness - m.PerformanceFairness
	}
	b.ReportMetric(gain, "fairness-corr-gain")
}

// BenchmarkFigure5Marriage regenerates the worked stable-marriage example.
func BenchmarkFigure5Marriage(b *testing.B) {
	var rounds float64
	for i := 0; i < b.N; i++ {
		tr, err := experiments.Figure5()
		if err != nil {
			b.Fatal(err)
		}
		rounds = float64(tr.Rounds)
	}
	b.ReportMetric(rounds, "rounds")
}

// BenchmarkFigure7Penalties regenerates Figure 7: per-application penalty
// profiles for all five policies, reporting the fairness correlations of
// the paper's recommended policy and the greedy baseline.
func BenchmarkFigure7Penalties(b *testing.B) {
	l := getLab(b)
	var smr, gr float64
	for i := 0; i < b.N; i++ {
		results, err := l.Figure7(400, 2)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			switch r.Policy {
			case "SMR":
				smr = r.FairnessCorr
			case "GR":
				gr = r.FairnessCorr
			}
		}
	}
	b.ReportMetric(smr, "SMR-fairness-corr")
	b.ReportMetric(gr, "GR-fairness-corr")
}

// BenchmarkFigure8RankFairness regenerates Figure 8: rank correlation
// between penalties and bandwidth demands.
func BenchmarkFigure8RankFairness(b *testing.B) {
	l := getLab(b)
	var smrRank float64
	for i := 0; i < b.N; i++ {
		results, err := l.Figure7(400, 3)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range experiments.Figure8(results) {
			if r.Policy == "SMR" {
				smrRank = r.RankCorr
			}
		}
	}
	b.ReportMetric(smrRank, "SMR-rank-corr")
}

// BenchmarkFigure9Preferences regenerates Figure 9: agents improved /
// unchanged / degraded when switching from conventional to stable
// policies, reporting the share doing at least as well under SR/GR.
func BenchmarkFigure9Preferences(b *testing.B) {
	l := getLab(b)
	var atLeast float64
	for i := 0; i < b.N; i++ {
		results, err := l.Figure9(3, 200, 0.005, 4)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if r.Stable == "SR" && r.Baseline == "GR" {
				total := r.Improved + r.Unchanged + r.Degraded
				atLeast = float64(r.Improved+r.Unchanged) / float64(total)
			}
		}
	}
	b.ReportMetric(atLeast*100, "SR/GR-at-least-as-well-%")
}

// BenchmarkFigure10Stability regenerates Figure 10: break-away
// recommendations per policy and alpha, reporting the medians at alpha=0
// for the most and least stable policies.
func BenchmarkFigure10Stability(b *testing.B) {
	l := getLab(b)
	alphas := []float64{0, 0.01, 0.02, 0.03, 0.04, 0.05}
	var smr, gr float64
	for i := 0; i < b.N; i++ {
		results, err := l.Figure10(5, 200, alphas, 5)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			switch r.Policy {
			case "SMR":
				smr = r.MedianBlocking(0)
			case "GR":
				gr = r.MedianBlocking(0)
			}
		}
	}
	b.ReportMetric(smr, "SMR-median-breakaways")
	b.ReportMetric(gr, "GR-median-breakaways")
}

// BenchmarkFigure11Sensitivity regenerates Figure 11: penalty
// distributions across the four workload mixes and five policies,
// reporting the contentious mix's mean penalty under SMP (the policy the
// paper singles out for that scenario).
func BenchmarkFigure11Sensitivity(b *testing.B) {
	l := getLab(b)
	var smpHigh float64
	for i := 0; i < b.N; i++ {
		cells, err := l.Figure11(300, 6)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range cells {
			if c.Mix == "Beta-High" && c.Policy == "SMP" {
				smpHigh = c.Mean
			}
		}
	}
	b.ReportMetric(smpHigh, "SMP-BetaHigh-mean-penalty")
}

// BenchmarkFigure12Prediction regenerates Figure 12: collaborative
// filtering accuracy vs sampled fraction, reporting the paper's two
// anchor points.
func BenchmarkFigure12Prediction(b *testing.B) {
	l := getLab(b)
	var at25, at75 float64
	for i := 0; i < b.N; i++ {
		points, err := l.Figure12([]float64{0.25, 0.75}, 3, 7)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			if p.Iterations != 2 {
				continue
			}
			switch p.Fraction {
			case 0.25:
				at25 = p.Accuracy
			case 0.75:
				at75 = p.Accuracy
			}
		}
	}
	b.ReportMetric(at25*100, "accuracy-at-25%")
	b.ReportMetric(at75*100, "accuracy-at-75%")
}

// BenchmarkFigure13Scalability regenerates Figure 13: SMR fairness vs
// population size, reporting the correlation gain from 10 to 400 agents.
func BenchmarkFigure13Scalability(b *testing.B) {
	l := getLab(b)
	var gain float64
	for i := 0; i < b.N; i++ {
		points, err := l.Figure13([]int{10, 100, 400}, 6, 8)
		if err != nil {
			b.Fatal(err)
		}
		gain = points[len(points)-1].FairnessCorr - points[0].FairnessCorr
	}
	b.ReportMetric(gain, "fairness-corr-gain-10-to-400")
}

// BenchmarkFigure14Shapley regenerates the appendix's Shapley example.
func BenchmarkFigure14Shapley(b *testing.B) {
	var phiC float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure14()
		if err != nil {
			b.Fatal(err)
		}
		phiC = r.Shapley[2]
	}
	b.ReportMetric(phiC, "phi-C")
}

// BenchmarkOverheadPrediction measures the §IV-A claim: preference
// prediction completes within ~100ms for a 1000-agent population (whose
// preference structure is the 20x20 job matrix plus agent expansion).
func BenchmarkOverheadPrediction(b *testing.B) {
	l := getLab(b)
	sparse := recommend.MaskPairs(l.Dense, 0.25, stats.NewRand(1))
	pop := workload.Sample(1000, l.Catalog, stats.Uniform{}, stats.NewRand(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		filled, _, err := recommend.Default().Complete(sparse)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := profiler.ExpandToAgents(filled, l.Catalog, pop); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOverheadPredictionReference runs the same §IV-A overhead
// experiment through the retained naive kernel, so the committed flat-
// kernel win (see BENCH_recommend.json) stays visible at the paper's
// own operating point, not just on synthetic matrices.
func BenchmarkOverheadPredictionReference(b *testing.B) {
	l := getLab(b)
	sparse := recommend.MaskPairs(l.Dense, 0.25, stats.NewRand(1))
	pop := workload.Sample(1000, l.Catalog, stats.Uniform{}, stats.NewRand(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		filled, _, err := recommend.Default().WithReferenceKernel().Complete(sparse)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := profiler.ExpandToAgents(filled, l.Catalog, pop); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOverheadMatching measures the §IV-C claim: stable matching
// colocates 1000 agents in single-digit seconds (1-5s in the paper's
// Java; this implementation is far faster).
func BenchmarkOverheadMatching(b *testing.B) {
	l := getLab(b)
	pop := workload.Sample(1000, l.Catalog, stats.Uniform{}, stats.NewRand(3))
	d, err := profiler.ExpandToAgents(l.Dense, l.Catalog, pop)
	if err != nil {
		b.Fatal(err)
	}
	bw := make([]float64, len(pop.Jobs))
	for i, j := range pop.Jobs {
		bw[i] = j.BandwidthGBps
	}
	for _, pol := range policy.All() {
		b.Run(pol.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ctx := policy.Context{BandwidthGBps: bw, Rand: stats.NewRand(int64(i))}
				if _, err := pol.Assign(d, ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStableMarriageCore measures raw Gale-Shapley on random
// 500x500 preference lists.
func BenchmarkStableMarriageCore(b *testing.B) {
	r := stats.NewRand(4)
	n := 500
	prop := make([][]int, n)
	recv := make([][]int, n)
	for i := 0; i < n; i++ {
		prop[i] = r.Perm(n)
		recv[i] = r.Perm(n)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := matching.StableMarriage(prop, recv); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStableRoommatesCore measures Irving's algorithm on random
// 500-agent instances (counting both solved and provably unstable runs).
func BenchmarkStableRoommatesCore(b *testing.B) {
	r := stats.NewRand(5)
	n := 500
	prefs := make([][]int, n)
	for i := range prefs {
		others := make([]int, 0, n-1)
		for j := 0; j < n; j++ {
			if j != i {
				others = append(others, j)
			}
		}
		r.Shuffle(len(others), func(a, c int) { others[a], others[c] = others[c], others[a] })
		prefs[i] = others
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = matching.StableRoommates(prefs)
	}
}

// BenchmarkPairContention measures the analytic CMP contention solver.
func BenchmarkPairContention(b *testing.B) {
	l := getLab(b)
	a := l.Catalog[0].Model
	c := l.Catalog[12].Model
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Machine.Pair(a, c)
	}
}

// BenchmarkAblationProposerAdvantage measures the §III-C proposer
// advantage under random partitions (the paper: small in practice).
func BenchmarkAblationProposerAdvantage(b *testing.B) {
	l := getLab(b)
	var adv float64
	for i := 0; i < b.N; i++ {
		res, err := l.ProposerAdvantage(200, 11)
		if err != nil {
			b.Fatal(err)
		}
		adv = res.Advantage
	}
	b.ReportMetric(adv, "penalty-advantage")
}

// BenchmarkAblationPredictionMatching measures what collaborative
// filtering at the paper's 25% operating point costs the matching
// relative to oracular knowledge.
func BenchmarkAblationPredictionMatching(b *testing.B) {
	l := getLab(b)
	var gap, fairness float64
	for i := 0; i < b.N; i++ {
		points, err := l.PredictionToMatching([]float64{0.25}, 200, 12)
		if err != nil {
			b.Fatal(err)
		}
		gap = points[0].MeanPenalty - points[0].OraclePenalty
		fairness = points[0].FairnessCorr
	}
	b.ReportMetric(gap, "penalty-gap-vs-oracle")
	b.ReportMetric(fairness, "fairness-corr")
}

// BenchmarkAblationThreshold measures the threshold baseline's machine
// cost at a 10% tolerance against fully loaded greedy.
func BenchmarkAblationThreshold(b *testing.B) {
	l := getLab(b)
	var extra float64
	for i := 0; i < b.N; i++ {
		points, err := l.ThresholdStudy([]float64{0.10}, 200, 13)
		if err != nil {
			b.Fatal(err)
		}
		extra = float64(points[0].Machines - points[0].GreedyMachines)
	}
	b.ReportMetric(extra, "extra-machines")
}

// BenchmarkAblationQuads measures the §VIII 4-way consolidation
// trade-off: machines halved, penalties absorbing the deeper contention
// and thread-share loss.
func BenchmarkAblationQuads(b *testing.B) {
	l := getLab(b)
	var penalty float64
	for i := 0; i < b.N; i++ {
		res, err := l.Quads(80, 14)
		if err != nil {
			b.Fatal(err)
		}
		penalty = res.QuadPenalty
	}
	b.ReportMetric(penalty, "quad-mean-penalty")
}

// BenchmarkAblationCacheIsolation contrasts shared-LRU contention with
// static way-partitioning: isolation protects cache-sensitive victims
// but leaves bandwidth contention intact.
func BenchmarkAblationCacheIsolation(b *testing.B) {
	l := getLab(b)
	shared := l.Machine
	isolated := l.Machine
	isolated.StaticCachePartition = true
	dedup, _ := workload.Find(l.Catalog, "dedup")
	corr, _ := workload.Find(l.Catalog, "correlation")
	var dShared, dIso float64
	for i := 0; i < b.N; i++ {
		soloS := shared.Solo(dedup.Model)
		coloS, _ := shared.Pair(dedup.Model, corr.Model)
		dShared = arch.Disutility(soloS, coloS)
		soloI := isolated.Solo(dedup.Model)
		coloI, _ := isolated.Pair(dedup.Model, corr.Model)
		dIso = arch.Disutility(soloI, coloI)
	}
	b.ReportMetric(dShared, "victim-penalty-shared")
	b.ReportMetric(dIso, "victim-penalty-isolated")
}

// BenchmarkStrategyProofness measures the manipulation study: the best
// gain any tested misreport achieves for a strategic agent under SMR
// (the paper's motivation for guarding against strategic behavior;
// deferred acceptance leaves liars nothing).
func BenchmarkStrategyProofness(b *testing.B) {
	l := getLab(b)
	var bestGain float64
	for i := 0; i < b.N; i++ {
		res, err := l.Manipulation(100, 5, 17)
		if err != nil {
			b.Fatal(err)
		}
		bestGain = res.BestGain
	}
	b.ReportMetric(bestGain, "best-lie-gain")
}

// BenchmarkChurnStability measures matching churn under 20% agent
// turnover per epoch.
func BenchmarkChurnStability(b *testing.B) {
	l := getLab(b)
	var blocking float64
	for i := 0; i < b.N; i++ {
		points, err := l.Churn(100, 4, 0.2, 18)
		if err != nil {
			b.Fatal(err)
		}
		blocking = points[len(points)-1].BlockingPct
	}
	b.ReportMetric(blocking, "final-blocking-pct")
}

// BenchmarkLoadSweep measures the continuous-operation driver at a
// moderate arrival rate.
func BenchmarkLoadSweep(b *testing.B) {
	l := getLab(b)
	var wait float64
	for i := 0; i < b.N; i++ {
		points, err := l.LoadSweep([]float64{400}, 1, 16)
		if err != nil {
			b.Fatal(err)
		}
		wait = points[0].MeanWaitS
	}
	b.ReportMetric(wait, "mean-wait-s")
}

// BenchmarkShapleyAttribution quantifies the abstract's fairness claim:
// the correlation between each policy's per-job penalties and the jobs'
// Shapley-fair shares of coalition penalties.
func BenchmarkShapleyAttribution(b *testing.B) {
	l := getLab(b)
	var smr, co float64
	for i := 0; i < b.N; i++ {
		res, err := l.ShapleyAttributionStudy(400, 10, 21)
		if err != nil {
			b.Fatal(err)
		}
		smr = res.PolicyCorr["SMR"]
		co = res.PolicyCorr["CO"]
	}
	b.ReportMetric(smr, "SMR-shapley-corr")
	b.ReportMetric(co, "CO-shapley-corr")
}

// BenchmarkEfficiencyStudy measures the intro's energy claim: colocation
// savings per job versus a one-job-per-machine schedule, under SMR.
func BenchmarkEfficiencyStudy(b *testing.B) {
	l := getLab(b)
	var smrSavings float64
	for i := 0; i < b.N; i++ {
		rows, err := l.EfficiencyStudy(100, 23)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Policy == "SMR" {
				smrSavings = r.SavingsPct
			}
		}
	}
	b.ReportMetric(smrSavings, "SMR-energy-savings-%")
}

// BenchmarkHeterogeneity measures the penalty inflation from breaking the
// paper's homogeneous-cluster assumption.
func BenchmarkHeterogeneity(b *testing.B) {
	l := getLab(b)
	var inflation float64
	for i := 0; i < b.N; i++ {
		res, err := l.Heterogeneity(100, 25)
		if err != nil {
			b.Fatal(err)
		}
		inflation = res.BlindMean / res.HomogeneousMean
	}
	b.ReportMetric(inflation, "blind-placement-inflation")
}

// benchEpochs drives repeated scheduling epochs over a fixed 200-agent
// population on an oracle framework (no profiling cost inside the loop).
func benchEpochs(b *testing.B, tel *Telemetry) {
	f, err := New(WithOracle(), WithSeed(31), WithTelemetry(tel))
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	pop := f.SamplePopulation(200, Uniform())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.RunEpoch(pop); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCampaign measures the offline profiling campaign — the pipeline's
// dominant cost — at a fixed worker count. Results are bit-identical at
// any count; only wall clock changes.
func benchCampaign(b *testing.B, workers int) {
	l := getLab(b)
	sim := arch.SimConfig{DurationS: 30, StepS: 1, PhaseNoise: 0.05, PhaseCorr: 0.6}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := profiler.New(l.Machine, profiler.NewDatabase(), 7)
		p.Sim = sim
		p.Workers = workers
		if err := p.CampaignContext(context.Background(), l.Catalog, 0.25); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProfilingCampaignSerial is the Workers:1 baseline for the
// bench-compare Makefile target.
func BenchmarkProfilingCampaignSerial(b *testing.B) { benchCampaign(b, 1) }

// BenchmarkProfilingCampaignParallel runs the same campaign fanned out
// over 8 workers (the per-run seeding makes the database identical).
func BenchmarkProfilingCampaignParallel(b *testing.B) { benchCampaign(b, 8) }

// benchEpochPipeline measures end-to-end epochs (expand, match, assess,
// dispatch) through the worker pool and pair cache at a fixed count.
func benchEpochPipeline(b *testing.B, workers int) {
	f, err := New(WithOracle(), WithSeed(31), WithWorkers(workers))
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	pop := f.SamplePopulation(400, Uniform())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.RunEpoch(pop); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEpochPipelineSerial is the Workers:1 epoch baseline.
func BenchmarkEpochPipelineSerial(b *testing.B) { benchEpochPipeline(b, 1) }

// BenchmarkEpochPipelineParallel runs the same epochs at 8 workers.
func BenchmarkEpochPipelineParallel(b *testing.B) { benchEpochPipeline(b, 8) }

// BenchmarkEpochThroughput measures epoch scheduling with telemetry
// disabled — the baseline the telemetry layer's overhead is judged
// against.
func BenchmarkEpochThroughput(b *testing.B) {
	benchEpochs(b, nil)
}

// BenchmarkEpochThroughputTelemetry measures the same epochs with the
// full telemetry layer enabled (spans, counters, histograms). When
// COOPER_TELEMETRY_OUT names a file, the final metrics snapshot is
// written there as JSON, so CI can archive a machine-readable record of
// the run.
func BenchmarkEpochThroughputTelemetry(b *testing.B) {
	tel := NewTelemetry()
	benchEpochs(b, tel)
	b.ReportMetric(float64(tel.Metrics.Snapshot().Counter("epoch.count")), "epochs")
	if path := os.Getenv("COOPER_TELEMETRY_OUT"); path != "" {
		f, err := os.Create(path)
		if err != nil {
			b.Fatal(err)
		}
		defer f.Close()
		if err := tel.Metrics.WriteJSON(f); err != nil {
			b.Fatal(err)
		}
	}
}
