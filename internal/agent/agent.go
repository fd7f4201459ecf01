// Package agent implements Cooper's decentralized agents. An agent acts
// on a user's behalf: it queries the system profiler for sparse colocation
// profiles, predicts preferences for co-runners, and — once the
// coordinator assigns colocations — assesses the assignment and
// recommends strategic action: participate in the shared system, or break
// away with mutually preferring partners.
//
// The action recommender computes the outcome of the paper's
// message-exchange protocol (§IV-B) in one pass: in the protocol an agent
// messages every agent it prefers over its assigned co-runner, and
// receiving such a message from an agent it also prefers reveals a
// blocking pair. Exchange finds exactly those mutual preferences
// directly, without the messages.
package agent

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"cooper/internal/matching"
)

// Action is an agent's strategic recommendation to its user.
type Action int

// Possible recommendations.
const (
	// Participate: the assignment satisfies the agent's preferences well
	// enough that no mutually better partner exists.
	Participate Action = iota
	// BreakAway: at least one blocking partner exists; the agent
	// recommends forming a separate subsystem with one of them.
	BreakAway
)

// String returns the action name.
func (a Action) String() string {
	switch a {
	case Participate:
		return "participate"
	case BreakAway:
		return "break-away"
	}
	return fmt.Sprintf("Action(%d)", int(a))
}

// Agent represents one user and their job in the colocation game.
type Agent struct {
	// ID is the agent's index in the population.
	ID int
	// JobName is the catalog application the agent runs.
	JobName string
	// Penalties is the agent's predicted disutility with every candidate
	// co-runner (its row of the completed penalty matrix).
	Penalties []float64
}

// New returns an agent with the given predicted penalty row.
func New(id int, jobName string, penalties []float64) *Agent {
	return &Agent{ID: id, JobName: jobName, Penalties: penalties}
}

// PreferenceList returns candidate co-runners ordered best-first (lowest
// predicted penalty), excluding the agent itself. Ties break by index.
func (a *Agent) PreferenceList() []int {
	list := make([]int, 0, len(a.Penalties)-1)
	for j := range a.Penalties {
		if j != a.ID {
			list = append(list, j)
		}
	}
	slices.SortFunc(list, func(x, y int) int { return comparePenalty(a.Penalties[x], a.Penalties[y], x, y) })
	return list
}

// comparePenalty orders candidates x and y by penalty, lowest first, with
// the index breaking ties (so 0 and -0 tie). It is a total order, so
// sorting with it needs no stability to be deterministic.
func comparePenalty(px, py float64, x, y int) int {
	if px != py {
		if px < py {
			return -1
		}
		return 1
	}
	return cmp.Compare(x, y)
}

// Recommendation is the action recommender's output for one agent.
type Recommendation struct {
	AgentID int
	Action  Action
	// BlockingPartners lists agents that mutually prefer this agent, best
	// first.
	BlockingPartners []int
	// ExpectedGain is the penalty reduction from pairing with the best
	// blocking partner (zero when participating).
	ExpectedGain float64
}

// NewRecommendation builds agent id's recommendation from its blocking
// partners, given in any order: with none it participates; otherwise it
// breaks away, listing the partners best-first by pen (its predicted
// penalty with each, index tie-breaks) and expecting to gain current —
// its penalty under the assignment — minus its best partner's penalty.
// blocking is sorted in place and kept by the recommendation.
func NewRecommendation(id int, current float64, blocking []int, pen func(j int) float64) Recommendation {
	rec := Recommendation{AgentID: id, Action: Participate}
	if len(blocking) == 0 {
		return rec
	}
	slices.SortFunc(blocking, func(x, y int) int { return comparePenalty(pen(x), pen(y), x, y) })
	rec.Action = BreakAway
	rec.BlockingPartners = blocking
	rec.ExpectedGain = current - pen(blocking[0])
	return rec
}

// Exchange computes the outcome of the message-exchange protocol over a
// population of agents and their assigned matching, in one pass. In the
// protocol each agent messages everyone it prefers over its co-runner by
// more than alpha, then crosses incoming messages with its own
// preferences; so agent i's blocking partners are every j other than i
// and its co-runner with cur(i)-P_i[j] > alpha and cur(j)-P_j[i] > alpha,
// where cur is an agent's penalty under the matching (zero when solo).
func Exchange(agents []*Agent, match matching.Matching, alpha float64) ([]Recommendation, error) {
	n := len(agents)
	if len(match) != n {
		return nil, fmt.Errorf("agent: %d agents but matching of %d", n, len(match))
	}
	for i, a := range agents {
		if a.ID != i {
			return nil, fmt.Errorf("agent: agent at position %d has ID %d", i, a.ID)
		}
		if len(a.Penalties) != n {
			return nil, fmt.Errorf("agent: agent %d has %d penalties, want %d",
				i, len(a.Penalties), n)
		}
	}
	cur := make([]float64, n)
	for i, a := range agents {
		if p := match[i]; p != matching.Unmatched {
			cur[i] = a.Penalties[p]
		}
	}
	recs := make([]Recommendation, n)
	for i, a := range agents {
		var blocking []int
		for j, pij := range a.Penalties {
			if !(cur[i]-pij > alpha) || j == i || j == match[i] {
				continue
			}
			if cur[j]-agents[j].Penalties[i] > alpha {
				blocking = append(blocking, j)
			}
		}
		recs[i] = NewRecommendation(i, cur[i], blocking, func(j int) float64 { return a.Penalties[j] })
	}
	return recs, nil
}

// BlockingPairsFromRecommendations reconstructs the set of mutual blocking
// pairs from agents' recommendations (each pair counted once, i < j).
func BlockingPairsFromRecommendations(recs []Recommendation) [][2]int {
	partners := make(map[[2]int]bool)
	for _, r := range recs {
		for _, j := range r.BlockingPartners {
			i := r.AgentID
			if i > j {
				i, j = j, i
			}
			partners[[2]int{i, j}] = true
		}
	}
	pairs := make([][2]int, 0, len(partners))
	for p := range partners {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(a, b int) bool {
		if pairs[a][0] != pairs[b][0] {
			return pairs[a][0] < pairs[b][0]
		}
		return pairs[a][1] < pairs[b][1]
	})
	return pairs
}
