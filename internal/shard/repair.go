package shard

import (
	"context"
	"fmt"
	"sort"

	"cooper/internal/matching"
	"cooper/internal/parallel"
	"cooper/internal/policy"
	"cooper/internal/rematch"
	"cooper/internal/stats"
	"cooper/internal/workload"
)

// RepairResult is the outcome of incrementally repairing a sharded
// matching around a churn delta.
type RepairResult struct {
	// Match is the repaired global matching.
	Match matching.Matching
	// ShardOf maps each agent index to its shard under the ID-keyed
	// partition.
	ShardOf []int
	// Neighborhood lists the agents whose proposals were re-run across
	// all shards, ascending.
	Neighborhood []int
	// Changed lists the agents whose partner differs from prev,
	// ascending.
	Changed []int
	// FallbackPairs counts cross-shard pairs formed for neighborhood
	// agents the shard-local repairs left unmatched.
	FallbackPairs int
}

// Repair routes an incremental re-match through the sharded market:
// each dirty agent's repair runs on its owning shard (the ID-keyed
// consistent-hash partition, so survivors keep their shards under
// churn) over a shard-restricted neighborhood, in parallel on split
// RNG streams; neighborhood agents a shard-local repair leaves solo
// are then paired across shard boundaries greedily, lowest combined
// penalty first — the cross-shard fallback for displaced partners.
// prev is the prior stable matching over the same population; dirty
// lists the agent indices whose assignments churn invalidated (their
// prev entries must be Unmatched). Pairs wholly outside the
// neighborhood are untouched.
func (m *Market) Repair(ctx context.Context, jobs []workload.Job, jobIdx []int, matrix [][]float64, prev matching.Matching, dirty []int, topK int) (*RepairResult, error) {
	n := len(jobs)
	if m.Policy == nil {
		return nil, fmt.Errorf("shard: market needs a policy")
	}
	if len(jobIdx) != n {
		return nil, fmt.Errorf("shard: %d job indices for %d agents", len(jobIdx), n)
	}
	if len(prev) != n {
		return nil, fmt.Errorf("shard: prior matching covers %d agents, want %d", len(prev), n)
	}
	if m.IDs != nil && len(m.IDs) != n {
		return nil, fmt.Errorf("shard: %d event IDs for %d agents", len(m.IDs), n)
	}
	for _, i := range dirty {
		if i < 0 || i >= n {
			return nil, fmt.Errorf("shard: dirty agent %d outside population of %d", i, n)
		}
		if prev[i] != matching.Unmatched {
			return nil, fmt.Errorf("shard: dirty agent %d still carries assignment %d", i, prev[i])
		}
	}

	ring := NewRing(m.Shards)
	shardOf, groups := ring.PartitionIDs(jobs, m.IDs)
	shards := ring.Shards()
	pen := func(i, j int) float64 { return matrix[jobIdx[i]][jobIdx[j]] }

	dirtyIn := make([][]int, shards)
	for _, i := range dirty {
		dirtyIn[shardOf[i]] = append(dirtyIn[shardOf[i]], i)
	}

	// Shard-local repairs in parallel: each shard computes its restricted
	// neighborhood and re-matches it over the sub-matrix with a private
	// SplitSeed RNG stream; results land in per-shard slots so the merge
	// below is independent of scheduling. Spans are keyed by shard index,
	// as in Clear, so their IDs do not depend on which worker opened
	// them first.
	nbhds := make([][]int, shards)
	local := make([]matching.Matching, shards)
	err := parallel.ForEach(ctx, m.Workers, shards, func(s int) error {
		if len(dirtyIn[s]) == 0 {
			return nil
		}
		sp := m.Tel.PhaseKeyed(m.Span, "repair-shard", int64(s))
		sp.SetAttr("shard", s)
		sp.SetAttr("dirty", len(dirtyIn[s]))
		defer m.Tel.End(sp)

		g := rematch.Neighborhood(dirtyIn[s], groups[s], prev, pen, topK)
		k := len(g)
		nbhds[s] = g
		if k < 2 {
			return nil
		}
		sub := make([][]float64, k)
		backing := make([]float64, k*k)
		bw := make([]float64, k)
		for a, i := range g {
			row := backing[a*k : (a+1)*k]
			for b, j := range g {
				if i != j {
					row[b] = pen(i, j)
				}
			}
			sub[a] = row
			bw[a] = jobs[i].BandwidthGBps
		}
		lm, err := m.Policy.Assign(sub, policy.Context{
			BandwidthGBps: bw,
			Rand:          stats.NewRand(parallel.SplitSeed(m.Seed, int64(s))),
			Metrics:       m.Tel.Registry(),
		})
		if err != nil {
			return fmt.Errorf("shard %d repair (%d agents): %w", s, k, err)
		}
		local[s] = lm
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Merge: unlink every neighborhood agent (partners are in-pool by
	// the neighborhood's closure), then apply the shard-local repairs.
	match := append(matching.Matching(nil), prev...)
	var nbhd []int
	for s := 0; s < shards; s++ {
		for _, i := range nbhds[s] {
			if p := match[i]; p != matching.Unmatched && match[p] == i {
				match[p] = matching.Unmatched
			}
			match[i] = matching.Unmatched
		}
		nbhd = append(nbhd, nbhds[s]...)
	}
	for s := 0; s < shards; s++ {
		for a, b := range local[s] {
			if b != matching.Unmatched {
				match[nbhds[s][a]] = nbhds[s][b]
			}
		}
	}
	sort.Ints(nbhd)

	// Cross-shard fallback: neighborhood agents the shard-local repairs
	// left solo (odd neighborhood sizes) pair across shard boundaries,
	// lowest combined penalty first, disjointly. Same-shard leftovers
	// stay solo — their shard's policy chose that.
	var leftover []int
	for _, i := range nbhd {
		if match[i] == matching.Unmatched {
			leftover = append(leftover, i)
		}
	}
	res := &RepairResult{ShardOf: shardOf, Neighborhood: nbhd}
	if len(leftover) > 1 {
		type cand struct {
			i, j int
			cost float64
		}
		var cands []cand
		for x := 0; x < len(leftover); x++ {
			for y := x + 1; y < len(leftover); y++ {
				i, j := leftover[x], leftover[y]
				if shardOf[i] == shardOf[j] {
					continue
				}
				cands = append(cands, cand{i: i, j: j, cost: pen(i, j) + pen(j, i)})
			}
		}
		sort.Slice(cands, func(a, b int) bool {
			if cands[a].cost != cands[b].cost {
				return cands[a].cost < cands[b].cost
			}
			if cands[a].i != cands[b].i {
				return cands[a].i < cands[b].i
			}
			return cands[a].j < cands[b].j
		})
		for _, c := range cands {
			if match[c.i] == matching.Unmatched && match[c.j] == matching.Unmatched {
				match[c.i], match[c.j] = c.j, c.i
				res.FallbackPairs++
			}
		}
	}
	if err := match.Validate(); err != nil {
		return nil, fmt.Errorf("shard: repaired matching invalid: %w", err)
	}
	res.Match = match
	for _, i := range nbhd {
		if match[i] != prev[i] {
			res.Changed = append(res.Changed, i)
		}
	}
	return res, nil
}
