// Package rematch implements Cooper's streaming market: online admission
// of arriving agents and incremental repair of the previous stable
// matching under churn, instead of re-clearing the whole market from
// scratch every epoch.
//
// The package has three pieces:
//
//   - The Ledger tracks the live population across epochs under stable
//     agent IDs: joins and departures accumulate between clears, and each
//     epoch's Apply emits a Delta — the new population, the prior
//     matching mapped into its index space, and the dirty set (arrivals
//     plus partners displaced by departures).
//   - Neighborhood and Rewire re-run proposals only inside the affected
//     neighborhood: the dirty agents, their top-K preference candidates
//     from the predicted penalty matrix, and the current partners of those
//     candidates (so rewiring a candidate never silently strands an
//     agent outside the neighborhood). Pairs wholly outside the
//     neighborhood are untouched, which is what makes repair cheap: the
//     sub-instance is O(churn · K) agents, not O(n), because same-job
//     agents share preference rows and therefore candidate lists.
//   - Recommendations is the streaming market's bounded strategic
//     assessment: a class-bucketed scan that reproduces the agents'
//     message-exchange Action and ExpectedGain exactly while listing at
//     most a bounded number of blocking partners per agent, so the
//     assessment phase stays O(n·classes) instead of O(n²).
//
// When cumulative churn since the last full clear exceeds a configurable
// fraction of the population (DefaultChurnThreshold), the caller falls
// back to a full re-match and reseeds the ledger — repair quality decays
// as the matching drifts from the policy's global solution, and the
// threshold bounds that drift. The market engine (internal/market) runs
// both the repair and the full re-match, sharded or not.
package rematch

import (
	"fmt"
	"math/rand"
	"sort"

	"cooper/internal/matching"
	"cooper/internal/policy"
	"cooper/internal/telemetry"
)

// Defaults for the streaming market.
const (
	// DefaultTopK bounds the preference candidates each dirty agent
	// pulls into its repair neighborhood.
	DefaultTopK = 16
	// DefaultChurnThreshold is the fraction of the base population whose
	// cumulative churn forces a full re-match (the WithChurnThreshold
	// facade default).
	DefaultChurnThreshold = 0.10
	// DefaultRecommendCap bounds the blocking partners each agent's
	// bounded recommendation lists.
	DefaultRecommendCap = 8
)

// ThresholdOrDefault resolves a churn-threshold knob (<= 0 means
// DefaultChurnThreshold).
func ThresholdOrDefault(t float64) float64 {
	if t <= 0 {
		return DefaultChurnThreshold
	}
	return t
}

// Neighborhood computes the repair neighborhood for the dirty agents:
// the dirty agents themselves, each one's top-K preference candidates
// under pen (lowest penalty first, index tie-break), and the prev
// partners of those candidates. members restricts the candidate pool
// (nil means all agents 0..len(prev)-1, a sharded market passes one
// shard's member list); a member whose prev partner falls outside the
// pool is ineligible as a candidate, so the result is always closed
// under prev partnership within the pool. The returned indices are
// ascending and the dirty agents are always included. topK <= 0 means
// DefaultTopK.
func Neighborhood(dirty []int, members []int, prev matching.Matching, pen func(i, j int) float64, topK int) []int {
	if topK <= 0 {
		topK = DefaultTopK
	}
	if members == nil {
		members = make([]int, len(prev))
		for i := range members {
			members[i] = i
		}
	}
	inPool := make(map[int]bool, len(members))
	for _, i := range members {
		inPool[i] = true
	}
	in := make(map[int]bool, len(dirty)*(topK+2))
	for _, i := range dirty {
		in[i] = true
	}
	// Top-K candidate selection per dirty agent by bounded insertion:
	// same-job dirty agents produce the same candidate list, so the
	// union stays O(classes · K) regardless of how many agents churned.
	type cand struct {
		p float64
		j int
	}
	best := make([]cand, 0, topK)
	for _, i := range dirty {
		best = best[:0]
		for _, j := range members {
			if j == i {
				continue
			}
			if p := prev[j]; p != matching.Unmatched && !inPool[p] {
				// Rewiring j would displace a partner outside the pool.
				continue
			}
			c := cand{p: pen(i, j), j: j}
			at := len(best)
			for at > 0 && (best[at-1].p > c.p || (best[at-1].p == c.p && best[at-1].j > c.j)) {
				at--
			}
			if at == topK {
				continue
			}
			if len(best) < topK {
				best = append(best, cand{})
			}
			copy(best[at+1:], best[at:])
			best[at] = c
		}
		for _, c := range best {
			in[c.j] = true
		}
	}
	// Close under prev partnership: a neighborhood member's partner is
	// pulled in so re-matching the member cannot strand it. One pass
	// suffices — the added partner's own partner is the member itself.
	for i := range in {
		if p := prev[i]; p != matching.Unmatched && !in[p] {
			in[p] = true
		}
	}
	nbhd := make([]int, 0, len(in))
	for i := range in {
		nbhd = append(nbhd, i)
	}
	sort.Ints(nbhd)
	return nbhd
}

// Rewire re-matches the neighborhood under the policy and returns the
// repaired matching: pairs wholly outside nbhd are preserved from prev,
// every nbhd member is re-assigned from scratch over the neighborhood
// sub-matrix. nbhd must be closed under prev partnership (Neighborhood
// guarantees this); bw[i] is agent i's standalone bandwidth for
// partitioning policies. The returned Changed lists the agents whose
// partner differs from prev, ascending.
func Rewire(nbhd []int, prev matching.Matching, pen func(i, j int) float64, bw []float64, pol policy.Policy, rng *rand.Rand, metrics *telemetry.Registry) (matching.Matching, []int, error) {
	k := len(nbhd)
	match := append(matching.Matching(nil), prev...)
	for _, i := range nbhd {
		if p := match[i]; p != matching.Unmatched && match[p] == i {
			match[p] = matching.Unmatched
		}
		match[i] = matching.Unmatched
	}
	if k > 1 {
		sub := make([][]float64, k)
		backing := make([]float64, k*k)
		subBW := make([]float64, k)
		for a, i := range nbhd {
			row := backing[a*k : (a+1)*k]
			for b, j := range nbhd {
				if i != j {
					row[b] = pen(i, j)
				}
			}
			sub[a] = row
			subBW[a] = bw[i]
		}
		lm, err := pol.Assign(sub, policy.Context{
			BandwidthGBps: subBW,
			Rand:          rng,
			Metrics:       metrics,
		})
		if err != nil {
			return nil, nil, fmt.Errorf("rematch: neighborhood of %d: %w", k, err)
		}
		for a, b := range lm {
			if b != matching.Unmatched {
				match[nbhd[a]] = nbhd[b]
			}
		}
	}
	if err := match.Validate(); err != nil {
		return nil, nil, fmt.Errorf("rematch: repaired matching invalid: %w", err)
	}
	var changed []int
	for _, i := range nbhd {
		if match[i] != prev[i] {
			changed = append(changed, i)
		}
	}
	return match, changed, nil
}
