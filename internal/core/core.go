// Package core wires Cooper's components into the end-to-end framework of
// the paper's Figure 6: the system profiler measures standalone and
// sampled colocated runs; the preference predictor completes the sparse
// penalty matrix; a colocation policy matches agents; agents assess their
// assignments and recommend strategic action; and the job dispatcher
// sends participating colocations to the cluster.
package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"cooper/internal/agent"
	"cooper/internal/arch"
	"cooper/internal/cachesim"
	"cooper/internal/cluster"
	"cooper/internal/market"
	"cooper/internal/matching"
	"cooper/internal/parallel"
	"cooper/internal/policy"
	"cooper/internal/profiler"
	"cooper/internal/recommend"
	"cooper/internal/rematch"
	"cooper/internal/stats"
	"cooper/internal/telemetry"
	"cooper/internal/workload"
)

// ErrCanceled reports that a pipeline run was aborted by its context
// before completing. Wraps the underlying context error; test with
// errors.Is(err, ErrCanceled).
var ErrCanceled = errors.New("cooper: pipeline canceled")

// ErrClosed reports that the framework was Closed and accepts no more
// epochs. Test with errors.Is(err, ErrClosed).
var ErrClosed = errors.New("cooper: framework closed")

// Framework is a ready-to-run Cooper instance: calibrated catalog,
// profiling database, completed preference model, worker pool, pair
// cache, and cluster.
type Framework struct {
	cfg     Config
	catalog []workload.Job
	db      *profiler.Database
	cluster *cluster.Cluster

	predicted [][]float64 // job-level penalties as agents believe them
	truth     [][]float64 // job-level penalties from the analytic oracle
	iters     int         // predictor iterations used
	kernel    string      // which kernel produced predicted (see Kernel)
	rng       *rand.Rand
	tel       *telemetry.Telemetry
	pool      *parallel.Pool
	cache     *arch.PairCache

	mu       sync.Mutex // guards closed
	closed   bool
	inflight sync.WaitGroup // in-flight epochs, for Close's drain
	epochSeq atomic.Int64   // 0-based epoch index stamped on flight-recorder events
	stream   streamState    // streaming-market ledger, used by StreamEpoch
}

// NewFramework builds a Framework from the grouped Config: it calibrates
// the catalog, runs the offline profiling campaign, and trains the
// preference predictor.
func NewFramework(cfg Config) (*Framework, error) {
	return NewFrameworkContext(context.Background(), cfg)
}

// NewFrameworkContext is NewFramework with cancellation: the profiling
// campaign, predictor training, and oracle computation honor ctx, so a
// canceled build returns ErrCanceled instead of running minutes of
// simulation.
func NewFrameworkContext(ctx context.Context, cfg Config) (*Framework, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Machine.Validate(); err != nil {
		return nil, err
	}
	catalog := cfg.Catalog
	if catalog == nil {
		var err error
		catalog, err = workload.Catalog(cfg.Machine)
		if err != nil {
			return nil, err
		}
	}
	if len(catalog) == 0 {
		return nil, fmt.Errorf("core: empty catalog")
	}
	f := &Framework{
		cfg:     cfg,
		catalog: catalog,
		db:      profiler.NewDatabase(),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		tel:     cfg.Observe.Telemetry,
		pool:    parallel.NewPool(cfg.Pipeline.Workers),
	}
	f.cache = arch.NewPairCache(cfg.Machine, f.tel.Registry())
	if f.tel != nil {
		// Route the model layers' package-level sinks into this registry.
		arch.SetMetrics(f.tel.Registry())
		cachesim.SetMetrics(f.tel.Registry())
	}
	var err error
	f.cluster, err = cluster.New(cfg.Machines, cfg.Machine)
	if err != nil {
		return nil, err
	}
	f.cluster.SetPairCache(f.cache)

	f.truth, err = profiler.DensePenaltiesContext(ctx, cfg.Machine, catalog,
		f.pool.Workers(), f.cache)
	if err != nil {
		return nil, wrapCanceled(ctx, err)
	}
	if cfg.Pipeline.Oracle {
		f.predicted = f.truth
		f.kernel = "oracle"
		return f, nil
	}
	if cfg.Pipeline.Penalties != nil {
		if err := validatePenalties(cfg.Pipeline.Penalties, len(catalog)); err != nil {
			return nil, err
		}
		f.predicted = cfg.Pipeline.Penalties
		f.kernel = "external"
		return f, nil
	}

	prof := profiler.New(cfg.Machine, f.db, cfg.Seed+1)
	prof.Sim = cfg.Sim
	prof.Tel = f.tel
	prof.Workers = f.pool.Workers()
	if err := prof.CampaignContext(ctx, catalog, cfg.Pipeline.SampleFraction); err != nil {
		return nil, wrapCanceled(ctx, err)
	}
	sparse, err := profiler.PenaltyMatrix(f.db, catalog)
	if err != nil {
		return nil, err
	}
	reg := f.tel.Registry()
	predict := f.tel.Phase(nil, "predict")
	predict.SetAttr("sparsity", profiler.Sparsity(sparse))
	preRecomputed := reg.Counter("predict.sim_pairs_recomputed").Value()
	preSkipped := reg.Counter("predict.sim_pairs_skipped").Value()
	preCandScored := reg.Counter("predict.candidates_scored").Value()
	preCandSkipped := reg.Counter("predict.candidates_skipped").Value()
	pred := cfg.Pipeline.Predictor
	pred.Metrics = reg
	pred.Workers = f.pool.Workers()
	f.kernel = pred.KernelName()
	predict.SetAttr("kernel", f.kernel)
	f.predicted, f.iters, err = pred.CompleteContext(ctx, sparse)
	if err != nil {
		return nil, wrapCanceled(ctx, err)
	}
	predict.SetAttr("fill_iters", f.iters)
	predict.SetAttr("sim_pairs_recomputed", reg.Counter("predict.sim_pairs_recomputed").Value()-preRecomputed)
	predict.SetAttr("sim_pairs_skipped", reg.Counter("predict.sim_pairs_skipped").Value()-preSkipped)
	if scored := reg.Counter("predict.candidates_scored").Value() - preCandScored; scored > 0 {
		predict.SetAttr("candidates_scored", scored)
		predict.SetAttr("candidates_skipped", reg.Counter("predict.candidates_skipped").Value()-preCandSkipped)
	}
	f.tel.End(predict)
	return f, nil
}

// validatePenalties checks a caller-supplied job-level penalty matrix.
func validatePenalties(d [][]float64, n int) error {
	if len(d) != n {
		return fmt.Errorf("core: penalties have %d rows for %d catalog jobs", len(d), n)
	}
	for i, row := range d {
		if len(row) != n {
			return fmt.Errorf("core: penalties row %d has %d entries, want %d", i, len(row), n)
		}
	}
	return nil
}

// reportedShards normalizes a shard-count knob for snapshots and
// reports: only a sharded market (> 1) is worth recording, and old logs
// carry zero.
func reportedShards(shards int) int {
	if shards > 1 {
		return shards
	}
	return 0
}

// wrapCanceled tags an error with ErrCanceled when ctx was canceled, so
// callers can test cancellation with errors.Is regardless of which
// pipeline layer surfaced it first.
func wrapCanceled(ctx context.Context, err error) error {
	if err == nil {
		return nil
	}
	if ctx.Err() != nil {
		return fmt.Errorf("%w: %v", ErrCanceled, err)
	}
	return err
}

// Close drains the framework: it marks the framework closed, waits for
// in-flight epochs to finish, and shuts the worker pool down. Further
// RunEpoch calls return ErrClosed. Safe to call more than once and from
// any goroutine (cooperd calls it from its signal handler while an epoch
// may be mid-dispatch).
func (f *Framework) Close() error {
	f.mu.Lock()
	already := f.closed
	f.closed = true
	f.mu.Unlock()
	if already {
		return nil
	}
	f.inflight.Wait()
	f.pool.Close()
	return nil
}

// Closed reports whether Close has been called.
func (f *Framework) Closed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.closed
}

// Workers returns the resolved worker budget of the framework's pool.
func (f *Framework) Workers() int { return f.pool.Workers() }

// PairCache returns the framework's memoized pair-penalty cache.
func (f *Framework) PairCache() *arch.PairCache { return f.cache }

// Catalog returns the calibrated 20-job catalog.
func (f *Framework) Catalog() []workload.Job { return f.catalog }

// Database returns the profiling database (empty in Oracle mode).
func (f *Framework) Database() *profiler.Database { return f.db }

// PredictedPenalties returns the completed job-level penalty matrix the
// agents believe.
func (f *Framework) PredictedPenalties() [][]float64 { return f.predicted }

// TruePenalties returns the oracle job-level penalty matrix.
func (f *Framework) TruePenalties() [][]float64 { return f.truth }

// PredictorIterations returns how many fill iterations the preference
// predictor used (0 in Oracle mode).
func (f *Framework) PredictorIterations() int { return f.iters }

// Kernel names the prediction kernel that produced the penalty matrix:
// "oracle", "external", "flat", "reference", or
// "approx(bits=B,bands=K)" for the LSH-bucketed approximate path.
func (f *Framework) Kernel() string { return f.kernel }

// Telemetry returns the telemetry handle the framework was built with
// (nil when observability is disabled).
func (f *Framework) Telemetry() *telemetry.Telemetry { return f.tel }

// Snapshot copies the framework's metrics and span tree. With telemetry
// disabled it returns an empty snapshot, so callers need not branch.
func (f *Framework) Snapshot() telemetry.Snapshot { return f.tel.Snapshot() }

// PredictionAccuracy evaluates the paper's Equation 2 on this framework's
// predicted versus true job-level penalties.
func (f *Framework) PredictionAccuracy() (float64, error) {
	return recommend.PreferenceAccuracy(f.truth, f.predicted)
}

// SamplePopulation draws n agents from the catalog with the given mix.
// Any stats.Sampler works — the built-in mixes (stats.Uniform,
// stats.Bimodal, ...) or a custom distribution.
func (f *Framework) SamplePopulation(n int, mix stats.Sampler) workload.Population {
	return workload.Sample(n, f.catalog, mix, f.rng)
}

// EpochReport is the outcome of one scheduling epoch.
type EpochReport struct {
	Population workload.Population
	Match      matching.Matching
	// Shards is the shard count the epoch's market was cleared with
	// (zero for the single unsharded market), and RefinementRounds /
	// RefinementTrades summarize the cross-shard refinement pass.
	Shards           int
	RefinementRounds int
	RefinementTrades int
	// PredictedPenalty and TruePenalty are per-agent disutilities under
	// the assignment, as predicted by agents and as the oracle knows
	// them.
	PredictedPenalty []float64
	TruePenalty      []float64
	// Recommendations are the agents' strategic assessments.
	Recommendations []agent.Recommendation
	// BlockingPairs are the mutual break-away opportunities agents
	// discovered (under their predicted preferences, with the
	// framework's alpha).
	BlockingPairs [][2]int
	// Cluster summarizes the dispatch of participating colocations.
	Cluster cluster.Report
	// AgentIDs maps each index to its stable streaming-market identity
	// (nil for classic RunEpoch epochs, whose agents are their indices).
	// Departures in a later StreamEpoch's Churn name these IDs.
	AgentIDs []int
	// Rematch summarizes how a streaming epoch absorbed its churn (nil
	// for classic epochs).
	Rematch *RematchSummary
}

// RunEpoch plays one round of the colocation game for the population:
// predict preferences, assign colocations, let agents assess them, and
// dispatch the work.
func (f *Framework) RunEpoch(pop workload.Population) (*EpochReport, error) {
	return f.RunEpochContext(context.Background(), pop)
}

// RunEpochContext is RunEpoch with cancellation and parallel assessment.
// The pipeline checks ctx between its phases (match, assess, dispatch)
// and inside the assessment fan-out, returning an error that wraps
// ErrCanceled if ctx fires. After Close it returns ErrClosed.
func (f *Framework) RunEpochContext(ctx context.Context, pop workload.Population) (*EpochReport, error) {
	ctx, leave, err := f.enter(ctx)
	if err != nil {
		return nil, err
	}
	defer leave()
	if len(pop.Jobs) == 0 {
		return nil, fmt.Errorf("core: empty population")
	}
	// In-process agents are their epoch-local indices.
	mpop, err := market.NewPopulation(f.catalog, pop.Jobs, nil)
	if err != nil {
		return nil, err
	}
	reg := f.tel.Registry()
	return f.runEpoch(ctx, &EpochReport{Population: pop}, mpop,
		func(ctx context.Context, epoch *telemetry.Span, run market.Run) (*market.Outcome, error) {
			matchSpan := f.tel.Phase(epoch, "match")
			preProposals := reg.Counter("match.proposals").Value()
			preRotations := reg.Counter("match.rotations").Value()
			run.Span = matchSpan
			out, err := market.Clear(ctx, f.cfg.Market, run, mpop, f.predicted, true)
			if err != nil {
				return nil, err
			}
			matchSpan.SetAttr("policy", f.cfg.Market.Policy.Name())
			if out.ShardOf != nil {
				matchSpan.SetAttr("shards", f.cfg.Market.Shards)
				matchSpan.SetAttr("refinement_rounds", out.RefinementRounds)
				matchSpan.SetAttr("refinement_trades", out.RefinementTrades)
			} else {
				matchSpan.SetAttr("proposals", reg.Counter("match.proposals").Value()-preProposals)
				matchSpan.SetAttr("rotations", reg.Counter("match.rotations").Value()-preRotations)
			}
			f.tel.End(matchSpan)
			return out, nil
		})
}

// enter admits one epoch past the close gate and arms the epoch
// deadline; the returned leave releases both.
func (f *Framework) enter(ctx context.Context) (context.Context, func(), error) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil, nil, ErrClosed
	}
	f.inflight.Add(1)
	f.mu.Unlock()
	cancel := context.CancelFunc(func() {})
	if f.cfg.Pipeline.EpochTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, f.cfg.Pipeline.EpochTimeout)
	}
	return ctx, func() { cancel(); f.inflight.Done() }, nil
}

// marketStep runs one epoch's market under the epoch span.
type marketStep func(ctx context.Context, epoch *telemetry.Span, run market.Run) (*market.Outcome, error)

// runEpoch is everything an epoch does around its market step: it
// consumes an epoch index, opens the epoch span, records epoch_start and
// the snapshot, runs step, then assesses the matching, records each
// agent's pair_matched or agent_unpaired event, dispatches the work,
// updates the epoch metrics and records cache_hit_rate and epoch_end.
// rep arrives holding the caller's Population (and, for a streaming
// epoch, its AgentIDs and Rematch summary); runEpoch fills in the rest.
func (f *Framework) runEpoch(ctx context.Context, rep *EpochReport, pop market.Population, step marketStep) (*EpochReport, error) {
	if err := ctx.Err(); err != nil {
		return nil, wrapCanceled(ctx, err)
	}
	n := len(pop.Jobs)
	// The epoch span is keyed by index so its ID is a pure function of
	// the seed and the epoch number: restarts and replays agree on it.
	epochIdx := int(f.epochSeq.Add(1) - 1)
	epoch := f.tel.PhaseKeyed(nil, "epoch", int64(epochIdx))
	epoch.SetAttr("agents", n)
	if rep.Rematch != nil {
		epoch.SetAttr("stream", true)
	}
	f.tel.RecordIn(epoch, telemetry.Event{
		Type: telemetry.EventEpochStart, Epoch: epochIdx,
		Agent: -1, Partner: -1, Value: float64(n),
	})
	if f.tel.EventRing() != nil {
		// Pin the epoch's inputs so an -events-out log is self-contained
		// for cooper-replay: the roster in event-log IDs (so it matches
		// the IDs rematch_round payloads name), and the job-level
		// predicted penalties the policy actually saw. α is recorded as
		// "no contract" — the framework counts blocking pairs as a result
		// (Figure 10), it does not promise their absence.
		jobs := make([]string, n)
		for i, job := range pop.Jobs {
			jobs[i] = job.Name
		}
		catalog := make([]string, len(f.catalog))
		for i, job := range f.catalog {
			catalog[i] = job.Name
		}
		f.tel.RecordIn(epoch, telemetry.EpochSnapshot{
			Epoch: epochIdx, Source: telemetry.SnapshotSourceCore,
			Policy: f.cfg.Market.Policy.Name(), Seed: f.cfg.Seed, Alpha: -1,
			Shards: reportedShards(f.cfg.Market.Shards),
			Kernel: f.kernel,
			Agents: pop.IDs, Jobs: jobs,
			Catalog: catalog, Matrix: f.predicted,
		}.Event())
	}
	if err := ctx.Err(); err != nil {
		return nil, wrapCanceled(ctx, err)
	}

	out, err := step(ctx, epoch, market.Run{Rand: f.rng, Workers: f.pool.Workers(), Epoch: epochIdx, Tel: f.tel})
	if err != nil {
		return nil, wrapCanceled(ctx, err)
	}
	match := out.Match
	rep.Match = match
	rep.Shards = reportedShards(f.cfg.Market.Shards)
	rep.RefinementRounds = out.RefinementRounds
	rep.RefinementTrades = out.RefinementTrades

	if err := ctx.Err(); err != nil {
		return nil, wrapCanceled(ctx, err)
	}
	assess := f.tel.Phase(epoch, "assess")
	rep.Recommendations = out.Recommendations
	if rep.Recommendations == nil {
		// A market step that brought no recommendations (every streaming
		// epoch) gets the bounded class-bucket assessment: exact Action
		// and ExpectedGain, bounded partner lists, O(n·classes) instead
		// of the O(n²) message exchange — repair epochs must never pay
		// quadratic work.
		rep.Recommendations = rematch.Recommendations(pop.JobIdx, f.predicted, match, f.cfg.Market.Alpha, 0)
	}
	rep.BlockingPairs = agent.BlockingPairsFromRecommendations(rep.Recommendations)

	// True penalties come from simulating each matched pair on its own
	// CMP, fanned out across the worker pool and memoized through the
	// pair cache. The solve is deterministic, so this equals the oracle
	// matrix lookup bit for bit at any worker count.
	rep.TruePenalty, err = policy.TruePenalties(ctx, f.cfg.Machine, pop.Jobs, match,
		f.pool.Workers(), f.cache)
	if err != nil {
		return nil, wrapCanceled(ctx, err)
	}

	pen := pop.Penalty(f.predicted)
	rep.PredictedPenalty = make([]float64, n)
	var meanPred float64
	for i, j := range match {
		if j != matching.Unmatched {
			rep.PredictedPenalty[i] = pen(i, j)
			meanPred += pen(i, j)
		}
		switch {
		case j == matching.Unmatched:
			f.tel.RecordIn(epoch, telemetry.Event{
				Type: telemetry.EventAgentUnpaired, Epoch: epochIdx,
				Agent: pop.IDs[i], Partner: -1, Job: pop.Jobs[i].Name,
			})
		case i < j:
			// One flight-recorder record per colocation, predicted next
			// to oracle truth — the per-pair accuracy residual the
			// paper's Figure 5 aggregates.
			f.tel.RecordIn(epoch, telemetry.Event{
				Type: telemetry.EventPairMatched, Epoch: epochIdx,
				Agent: pop.IDs[i], Partner: pop.IDs[j], Job: pop.Jobs[i].Name,
				Predicted: pen(i, j), True: rep.TruePenalty[i],
			})
		}
	}
	meanPred /= float64(n)
	assess.SetAttr("breakaways", rep.BreakAwayCount())
	assess.SetAttr("blocking_pairs", len(rep.BlockingPairs))
	f.tel.End(assess)

	// Dispatch: agents participate by default (the paper's
	// implementation), so every assignment goes to the cluster.
	if err := ctx.Err(); err != nil {
		return nil, wrapCanceled(ctx, err)
	}
	dispatch := f.tel.Phase(epoch, "dispatch")
	f.cluster.Reset()
	var batch []cluster.Assignment
	for i, j := range match {
		switch {
		case j == matching.Unmatched:
			batch = append(batch, cluster.Assignment{
				AgentA: i, AgentB: -1, JobA: pop.Jobs[i],
			})
		case i < j:
			batch = append(batch, cluster.Assignment{
				AgentA: i, AgentB: j, JobA: pop.Jobs[i], JobB: pop.Jobs[j],
			})
		}
	}
	results := f.cluster.Dispatch(batch)
	rep.Cluster = f.cluster.Summarize(results)
	dispatch.SetAttr("colocations", len(batch))
	f.tel.End(dispatch)
	f.tel.End(epoch)

	if reg := f.tel.Registry(); reg != nil {
		reg.Counter("epoch.count").Inc()
		reg.Counter("epoch.agents").Add(int64(n))
		reg.Counter("epoch.breakaways").Add(int64(rep.BreakAwayCount()))
		reg.Counter("epoch.blocking_pairs").Add(int64(len(rep.BlockingPairs)))
		reg.Gauge("epoch.mean_penalty").Set(rep.MeanTruePenalty())
		h := reg.Histogram("epoch.penalty", telemetry.PenaltyBuckets())
		for _, p := range rep.TruePenalty {
			h.Observe(p)
		}
	}
	f.tel.RecordIn(epoch, telemetry.Event{
		Type: telemetry.EventCacheHitRate, Epoch: epochIdx,
		Agent: -1, Partner: -1, Value: f.cache.HitRate(),
	})
	// Value is the oracle mean (what the dashboards chart); Predicted is
	// the matrix-derived mean an offline auditor can recompute from the
	// epoch snapshot alone, bit for bit.
	f.tel.RecordIn(epoch, telemetry.Event{
		Type: telemetry.EventEpochEnd, Epoch: epochIdx,
		Agent: -1, Partner: -1, Value: rep.MeanTruePenalty(),
		Predicted: meanPred,
	})
	return rep, nil
}

// MeanTruePenalty returns the population-average oracle penalty of the
// epoch.
func (r *EpochReport) MeanTruePenalty() float64 {
	if len(r.TruePenalty) == 0 {
		return 0
	}
	var sum float64
	for _, p := range r.TruePenalty {
		sum += p
	}
	return sum / float64(len(r.TruePenalty))
}

// BreakAwayCount returns how many agents recommended breaking away.
func (r *EpochReport) BreakAwayCount() int {
	count := 0
	for _, rec := range r.Recommendations {
		if rec.Action == agent.BreakAway {
			count++
		}
	}
	return count
}
