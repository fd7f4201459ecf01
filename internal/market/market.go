// Package market is Cooper's market engine: it clears or repairs one
// round of the colocation market over a population held by job index.
// It is the one place that chooses between the single all-pairs market
// (expand the job-level matrix to agents, run the policy, let agents
// exchange assessments) and the sharded one (internal/shard). The
// in-process framework (internal/core) and the wire coordinator
// (internal/netproto) both call it, so every market feature reaches both.
package market

import (
	"context"
	"fmt"
	"math/rand"

	"cooper/internal/agent"
	"cooper/internal/matching"
	"cooper/internal/policy"
	"cooper/internal/profiler"
	"cooper/internal/rematch"
	"cooper/internal/shard"
	"cooper/internal/telemetry"
	"cooper/internal/workload"
)

// Config groups the knobs of the colocation market itself: which policy
// clears it, the stability threshold agents assess against, and how the
// market is sharded at scale.
type Config struct {
	// Policy assigns colocations. The framework and the wire coordinator
	// default nil to StableMarriageRandom, the paper's recommended policy.
	Policy policy.Policy
	// Alpha is the minimum performance gain for which an agent recommends
	// breaking away (and, in the sharded market, the minimum mutual gain
	// for a cross-shard refinement trade).
	Alpha float64
	// Shards splits the market into consistent-hash shards cleared in
	// parallel, with bounded cross-shard refinement reconciling the
	// boundaries (see internal/shard). Values <= 1 mean the single
	// unsharded market, which reproduces the classic pipeline exactly.
	Shards int
	// RefinementBudget caps cross-shard refinement rounds per epoch:
	// 0 means shard.DefaultRefinementBudget, negative disables
	// refinement. Ignored by the unsharded market.
	RefinementBudget int
	// Rematch enables the streaming market: StreamEpoch admits churn
	// mid-stream and repairs the prior epoch's matching incrementally
	// (see internal/rematch) instead of re-clearing from scratch.
	Rematch bool
	// RematchTopK bounds the preference candidates each churned agent
	// pulls into its repair neighborhood (<= 0 means
	// rematch.DefaultTopK).
	RematchTopK int
	// ChurnThreshold is the fraction of the population whose cumulative
	// churn since the last full clear forces the next streaming epoch to
	// re-match from scratch (<= 0 means rematch.DefaultChurnThreshold).
	ChurnThreshold float64
}

// Population is one round's market participants: agent i runs Jobs[i],
// whose row in the job-level penalty matrix is JobIdx[i], and appears in
// flight-recorder events as IDs[i].
type Population struct {
	Jobs   []workload.Job
	JobIdx []int
	IDs    []int
}

// NewPopulation resolves jobs to their catalog rows. ids are the agents'
// event-log identities; nil means each agent is its index.
func NewPopulation(catalog, jobs []workload.Job, ids []int) (Population, error) {
	names := make([]string, len(jobs))
	for i, j := range jobs {
		names[i] = j.Name
	}
	jobIdx, err := shard.JobIndices(catalog, names)
	if err != nil {
		return Population{}, err
	}
	if ids == nil {
		ids = make([]int, len(jobs))
		for i := range ids {
			ids[i] = i
		}
	}
	return Population{Jobs: jobs, JobIdx: jobIdx, IDs: ids}, nil
}

// Penalty returns agent i's predicted penalty with agent j under the
// job-level matrix.
func (p Population) Penalty(matrix [][]float64) func(i, j int) float64 {
	return func(i, j int) float64 { return matrix[p.JobIdx[i]][p.JobIdx[j]] }
}

func (p Population) bandwidths() []float64 {
	bw := make([]float64, len(p.Jobs))
	for i, j := range p.Jobs {
		bw[i] = j.BandwidthGBps
	}
	return bw
}

// Run is the per-call context of one clear or repair: the caller's RNG
// (drawn from exactly as the caller's own policy call would draw), the
// worker budget of the sharded fan-out, the epoch stamped on events, and
// where telemetry goes.
type Run struct {
	Rand    *rand.Rand
	Workers int
	Epoch   int
	// Tel receives the policy's matching counters and, when sharded, the
	// per-shard spans and shard_matched/refinement_round events.
	Tel *telemetry.Telemetry
	// Span parents the per-shard spans.
	Span *telemetry.Span
}

// Outcome is the result of one clear or repair.
type Outcome struct {
	// Match is the population's matching.
	Match matching.Matching
	// ShardOf maps each agent to its shard (nil when unsharded).
	ShardOf []int
	// Recommendations are the agents' strategic assessments, present when
	// a clear asked for them.
	Recommendations []agent.Recommendation
	// RefinementRounds and RefinementTrades summarize a sharded clear's
	// cross-shard refinement.
	RefinementRounds int
	RefinementTrades int
	// Neighborhood lists the agents a repair re-matched and Changed those
	// that ended with a different partner, both ascending.
	Neighborhood []int
	Changed      []int
}

// sharded builds the shard market for one call, drawing its seed from the
// caller's RNG: the single draw a sharded round makes.
func (r Run) sharded(cfg Config, pop Population, wantRecs bool) *shard.Market {
	return &shard.Market{
		Shards:              cfg.Shards,
		RefinementBudget:    cfg.RefinementBudget,
		Policy:              cfg.Policy,
		Alpha:               cfg.Alpha,
		Workers:             r.Workers,
		Seed:                r.Rand.Int63(),
		Epoch:               r.Epoch,
		IDs:                 pop.IDs,
		Tel:                 r.Tel,
		Span:                r.Span,
		SkipRecommendations: !wantRecs,
	}
}

// Clear matches the population from scratch. With wantRecs the outcome
// also carries every agent's recommendation: shard-local when sharded,
// the full message exchange otherwise.
func Clear(ctx context.Context, cfg Config, run Run, pop Population, matrix [][]float64, wantRecs bool) (*Outcome, error) {
	if cfg.Policy == nil {
		return nil, fmt.Errorf("market: no policy")
	}
	if cfg.Shards > 1 {
		res, err := run.sharded(cfg, pop, wantRecs).Clear(ctx, pop.Jobs, pop.JobIdx, matrix)
		if err != nil {
			return nil, err
		}
		return &Outcome{
			Match: res.Match, ShardOf: res.ShardOf, Recommendations: res.Recommendations,
			RefinementRounds: res.RefinementRounds, RefinementTrades: res.RefinementTrades,
		}, nil
	}
	d := profiler.ExpandRows(matrix, pop.JobIdx)
	match, err := cfg.Policy.Assign(d, policy.Context{
		BandwidthGBps: pop.bandwidths(),
		Rand:          run.Rand,
		Metrics:       run.Tel.Registry(),
	})
	if err != nil {
		return nil, err
	}
	out := &Outcome{Match: match}
	if !wantRecs {
		return out, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	agents := make([]*agent.Agent, len(d))
	for i := range agents {
		agents[i] = agent.New(i, pop.Jobs[i].Name, d[i])
	}
	out.Recommendations, err = agent.Exchange(agents, match, cfg.Alpha)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Repair re-matches only the neighborhood of the dirty agents around the
// prior matching prev, whose dirty entries must be Unmatched; pairs
// wholly outside the neighborhood keep their partners. Sharded, each
// dirty agent is repaired on its own shard.
func Repair(ctx context.Context, cfg Config, run Run, pop Population, matrix [][]float64, prev matching.Matching, dirty []int) (*Outcome, error) {
	if cfg.Policy == nil {
		return nil, fmt.Errorf("market: no policy")
	}
	if cfg.Shards > 1 {
		res, err := run.sharded(cfg, pop, false).Repair(ctx, pop.Jobs, pop.JobIdx, matrix, prev, dirty, cfg.RematchTopK)
		if err != nil {
			return nil, err
		}
		return &Outcome{Match: res.Match, ShardOf: res.ShardOf, Neighborhood: res.Neighborhood, Changed: res.Changed}, nil
	}
	pen := pop.Penalty(matrix)
	nbhd := rematch.Neighborhood(dirty, nil, prev, pen, cfg.RematchTopK)
	match, changed, err := rematch.Rewire(nbhd, prev, pen, pop.bandwidths(), cfg.Policy, run.Rand, run.Tel.Registry())
	if err != nil {
		return nil, err
	}
	return &Outcome{Match: match, Neighborhood: nbhd, Changed: changed}, nil
}
