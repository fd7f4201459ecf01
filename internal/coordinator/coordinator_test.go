package coordinator

import (
	"testing"

	"cooper/internal/arch"
	"cooper/internal/core"
	"cooper/internal/stats"
	"cooper/internal/telemetry"
	"cooper/internal/workload"
)

func testDriver(t *testing.T) (*Driver, []workload.Job) {
	t.Helper()
	f, err := core.NewFramework(core.Config{Seed: 1, Pipeline: core.PipelineConfig{Oracle: true}})
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := workload.Catalog(arch.DefaultCMP())
	if err != nil {
		t.Fatal(err)
	}
	return &Driver{Framework: f, PeriodS: 300, MaxBatch: 40}, jobs
}

func TestPoissonArrivals(t *testing.T) {
	_, jobs := testDriver(t)
	r := stats.NewRand(2)
	arrivals, err := PoissonArrivals(0.1, 3600, jobs, stats.Uniform{}, r)
	if err != nil {
		t.Fatal(err)
	}
	// Expect ~360 arrivals.
	if len(arrivals) < 250 || len(arrivals) > 480 {
		t.Errorf("arrivals = %d, expected ~360", len(arrivals))
	}
	prev := 0.0
	for _, a := range arrivals {
		if a.TimeS < prev || a.TimeS >= 3600 {
			t.Fatalf("arrival time %v out of order or range", a.TimeS)
		}
		prev = a.TimeS
		if a.Job.Name == "" {
			t.Fatal("arrival without job")
		}
	}
}

func TestPoissonArrivalsValidation(t *testing.T) {
	_, jobs := testDriver(t)
	r := stats.NewRand(3)
	if _, err := PoissonArrivals(0, 100, jobs, stats.Uniform{}, r); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := PoissonArrivals(1, 0, jobs, stats.Uniform{}, r); err == nil {
		t.Error("zero duration accepted")
	}
	if _, err := PoissonArrivals(1, 100, nil, stats.Uniform{}, r); err == nil {
		t.Error("empty catalog accepted")
	}
}

func TestDriverBatchesAllArrivals(t *testing.T) {
	d, jobs := testDriver(t)
	r := stats.NewRand(4)
	arrivals, err := PoissonArrivals(0.05, 3600, jobs, stats.Uniform{}, r)
	if err != nil {
		t.Fatal(err)
	}
	epochs, summary, err := d.Run(arrivals)
	if err != nil {
		t.Fatal(err)
	}
	if summary.Jobs != len(arrivals) {
		t.Errorf("scheduled %d jobs, want %d", summary.Jobs, len(arrivals))
	}
	if summary.Epochs != len(epochs) || summary.Epochs == 0 {
		t.Errorf("epochs = %d", summary.Epochs)
	}
	if summary.MeanWaitS <= 0 || summary.MeanWaitS > d.PeriodS {
		t.Errorf("mean wait %v outside (0, period]", summary.MeanWaitS)
	}
	for _, e := range epochs {
		if len(e.Report.Population.Jobs) == 0 {
			t.Fatal("empty epoch")
		}
		if e.MeanWaitS < 0 {
			t.Fatalf("negative wait %v", e.MeanWaitS)
		}
	}
}

func TestDriverQueuesUnderLoad(t *testing.T) {
	d, jobs := testDriver(t)
	d.MaxBatch = 10
	// Heavy burst: 100 jobs in the first period.
	var arrivals []Arrival
	for i := 0; i < 100; i++ {
		arrivals = append(arrivals, Arrival{TimeS: float64(i), Job: jobs[i%len(jobs)]})
	}
	epochs, summary, err := d.Run(arrivals)
	if err != nil {
		t.Fatal(err)
	}
	if summary.MaxQueued == 0 {
		t.Error("burst should queue jobs")
	}
	if summary.Jobs != 100 {
		t.Errorf("all jobs eventually scheduled, got %d", summary.Jobs)
	}
	// Batches capped.
	for _, e := range epochs {
		if n := len(e.Report.Population.Jobs); n > 10 {
			t.Fatalf("batch of %d exceeds cap", n)
		}
	}
	// Later epochs' waits grow as the queue drains.
	if epochs[len(epochs)-1].MeanWaitS <= epochs[0].MeanWaitS {
		t.Errorf("drain waits should grow: first %v, last %v",
			epochs[0].MeanWaitS, epochs[len(epochs)-1].MeanWaitS)
	}
}

func TestDriverValidation(t *testing.T) {
	if _, _, err := (&Driver{}).Run(nil); err == nil {
		t.Error("missing framework accepted")
	}
	f, err := core.NewFramework(core.Config{Seed: 9, Pipeline: core.PipelineConfig{Oracle: true}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := (&Driver{Framework: f}).Run(nil); err == nil {
		t.Error("zero period accepted")
	}
	epochs, summary, err := (&Driver{Framework: f, PeriodS: 10}).Run(nil)
	if err != nil || len(epochs) != 0 || summary.Jobs != 0 {
		t.Errorf("empty arrivals: epochs=%d summary=%+v err=%v",
			len(epochs), summary, err)
	}
}

func TestSummarizeInvariants(t *testing.T) {
	mk := func(n int, penalty, wait float64, queued int) Epoch {
		pop := workload.Population{Jobs: make([]workload.Job, n)}
		pen := make([]float64, n)
		for i := range pen {
			pen[i] = penalty
		}
		return Epoch{
			Report:      &core.EpochReport{Population: pop, TruePenalty: pen},
			MeanWaitS:   wait,
			QueuedAfter: queued,
		}
	}
	epochs := []Epoch{
		mk(4, 0.10, 30, 2),
		mk(6, 0.20, 60, 7),
		mk(2, 0.05, 0, 0),
	}
	s := summarize(epochs)
	if s.Epochs != len(epochs) {
		t.Errorf("Epochs = %d, want %d", s.Epochs, len(epochs))
	}
	if s.Jobs != 12 {
		t.Errorf("Jobs = %d, want 12", s.Jobs)
	}
	// Job-weighted means: penalty (4*0.10+6*0.20+2*0.05)/12, wait
	// (4*30+6*60+2*0)/12.
	wantPen := (4*0.10 + 6*0.20 + 2*0.05) / 12
	if diff := s.MeanPenalty - wantPen; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("MeanPenalty = %v, want %v", s.MeanPenalty, wantPen)
	}
	wantWait := (4*30.0 + 6*60.0) / 12
	if diff := s.MeanWaitS - wantWait; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("MeanWaitS = %v, want %v", s.MeanWaitS, wantWait)
	}
	if s.MaxQueued != 7 {
		t.Errorf("MaxQueued = %d, want 7", s.MaxQueued)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := summarize(nil)
	if s != (Summary{}) {
		t.Errorf("empty summarize = %+v, want zero value", s)
	}
}

func TestDriverRecordsTelemetry(t *testing.T) {
	tel := telemetry.New()
	f, err := core.NewFramework(core.Config{Seed: 1, Pipeline: core.PipelineConfig{Oracle: true},
		Observe: core.ObserveConfig{Telemetry: tel}})
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := workload.Catalog(arch.DefaultCMP())
	if err != nil {
		t.Fatal(err)
	}
	d := &Driver{Framework: f, PeriodS: 300, MaxBatch: 40}
	arrivals, err := PoissonArrivals(0.05, 3600, jobs, stats.Uniform{}, stats.NewRand(3))
	if err != nil {
		t.Fatal(err)
	}
	epochs, sum, err := d.Run(arrivals)
	if err != nil {
		t.Fatal(err)
	}
	snap := tel.Snapshot()
	if got := snap.Counter("driver.epochs"); got != int64(len(epochs)) {
		t.Errorf("driver.epochs = %d, want %d", got, len(epochs))
	}
	if got := snap.Counter("driver.jobs"); got != int64(sum.Jobs) {
		t.Errorf("driver.jobs = %d, want %d", got, sum.Jobs)
	}
	if h, ok := snap.Histograms["driver.wait_s"]; !ok || h.Count != uint64(len(epochs)) {
		t.Errorf("driver.wait_s observations = %+v, want %d", h, len(epochs))
	}
	if got := snap.Counter("epoch.count"); got != int64(len(epochs)) {
		t.Errorf("epoch.count = %d, want %d", got, len(epochs))
	}
}
