package core

import (
	"time"

	"cooper/internal/arch"
	"cooper/internal/market"
	"cooper/internal/policy"
	"cooper/internal/recommend"
	"cooper/internal/telemetry"
	"cooper/internal/workload"
)

// MarketConfig groups the knobs of the colocation market itself (see
// market.Config): which policy clears it, the stability threshold agents
// assess against, how it is sharded, and the streaming market's repair
// knobs.
type MarketConfig = market.Config

// PipelineConfig groups the epoch pipeline's execution knobs: worker
// budget, profiling and prediction configuration, and epoch deadlines.
type PipelineConfig struct {
	// Workers bounds the worker pool the pipeline's fan-out phases share
	// (profiling campaign, matrix completion, oracle computation, epoch
	// assessment, per-shard matching). <= 0 means GOMAXPROCS; 1 forces
	// the serial pipeline. Any value produces bit-identical results —
	// parallelism never perturbs the simulation.
	Workers int
	// SampleFraction is the share of the colocation space profiled
	// offline. Zero means 0.25, the paper's operating point.
	SampleFraction float64
	// Predictor completes the sparse penalty matrix. Zero value fields
	// mean recommend.Default().
	Predictor recommend.Predictor
	// Oracle skips profiling and prediction, giving the policy exact
	// analytic penalties — the "oracular knowledge" configuration the
	// paper compares collaborative filtering against.
	Oracle bool
	// Penalties, when non-nil, supplies the completed job-level penalty
	// matrix directly (len(Catalog) x len(Catalog)) and skips the
	// profiling campaign and predictor entirely — for daemons that load
	// measurements from a profile database out of band.
	Penalties [][]float64
	// EpochTimeout, when positive, bounds each RunEpoch's wall-clock
	// time: the epoch's context is cut over to a deadline and a run that
	// blows it returns an error wrapping ErrCanceled instead of stalling
	// the caller's scheduling loop (cooperd -epoch-timeout).
	EpochTimeout time.Duration
}

// ObserveConfig groups the observability attachments.
type ObserveConfig struct {
	// Telemetry, when non-nil, receives phase spans, pipeline metrics,
	// and flight-recorder events from every layer the framework touches.
	// Nil (the default) disables observability at near-zero cost.
	Telemetry *telemetry.Telemetry
}

// Config configures a Framework, grouped by concern: the simulated
// hardware, the market being cleared, the pipeline clearing it, and what
// is observed along the way. The zero value is a runnable default (the
// paper's catalog, machines, policy, and operating point).
type Config struct {
	// Machine is the CMP model shared by every node. Zero value means
	// arch.DefaultCMP().
	Machine arch.CMP
	// Machines is the cluster size in CMPs. Zero means 10 (the paper's
	// five dual-socket nodes).
	Machines int
	// Seed drives all randomness (profiling noise, sampling, SMR
	// partitions, per-shard RNG streams).
	Seed int64
	// Sim overrides the profiling simulation config (zero value uses a
	// short, noisy default suitable for experiments).
	Sim arch.SimConfig
	// Catalog overrides the built-in Table I catalog with a custom one
	// (built via workload.BuildCatalog or workload.LoadCatalog against
	// the same Machine). Nil uses the paper's 20 jobs.
	Catalog []workload.Job

	Market   MarketConfig
	Pipeline PipelineConfig
	Observe  ObserveConfig
}

func (c Config) withDefaults() Config {
	if c.Machine.Cores == 0 {
		c.Machine = arch.DefaultCMP()
	}
	if c.Machines == 0 {
		c.Machines = 10
	}
	if c.Market.Policy == nil {
		c.Market.Policy = policy.StableMarriageRandom{}
	}
	if c.Pipeline.SampleFraction == 0 {
		c.Pipeline.SampleFraction = 0.25
	}
	if c.Pipeline.Predictor == (recommend.Predictor{}) {
		c.Pipeline.Predictor = recommend.Default()
	}
	if c.Sim == (arch.SimConfig{}) {
		// Profiling runs long enough to average out phase behaviour, as
		// the paper's minutes-long profiled executions do.
		c.Sim = arch.SimConfig{DurationS: 30, StepS: 1, PhaseNoise: 0.05, PhaseCorr: 0.6}
	}
	return c
}
