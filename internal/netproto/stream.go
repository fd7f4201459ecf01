package netproto

import (
	"context"
	"encoding/json"
	"sort"

	"cooper/internal/market"
	"cooper/internal/matching"
	"cooper/internal/rematch"
	"cooper/internal/telemetry"
)

// wireChurn is a streaming rematch_round's Data payload: the churn the
// round absorbed, in wire AgentIDs. The field names are the contract
// internal/audit parses.
type wireChurn struct {
	Joined       []int `json:"joined,omitempty"`
	Departed     []int `json:"departed,omitempty"`
	Neighborhood []int `json:"neighborhood,omitempty"`
}

// emitRematchRound records one streaming rematch round. Value is the
// post-churn population, so auditors can cross-check it against the
// roster derived from lifecycle events.
func (s *Server) emitRematchRound(epoch, round int, kind string, churn wireChurn) {
	data, err := json.Marshal(churn)
	if err != nil {
		data = []byte("{}")
	}
	s.record(telemetry.Event{Type: telemetry.EventRematchRound,
		Epoch: epoch, Agent: -1, Partner: -1, Round: round, Kind: kind,
		Value: float64(len(s.sessions)), Data: string(data)})
}

// runEpochStream clears one scheduling epoch in streaming mode. The
// first round is a full clear of the boundary population, exactly like
// the classic path; after each round's assessments are collected, the
// registration queue is drained and the dead are tallied, and any churn
// — live admissions, reaped agents — is absorbed by an incremental
// repair round that re-runs proposals only inside the affected
// neighborhood and re-pushes assignments only to the agents whose
// partners changed. When cumulative churn since the epoch's last full
// clear exceeds ChurnThreshold×population, the round falls back to a
// full re-match. The epoch closes once a round ends with no churn left
// to absorb; EpochTimeout bounds a registration flood.
func (s *Server) runEpochStream(ep *wireEpoch) (Message, error) {
	var (
		baseN    int         // population at the epoch's last full clear
		churn    int         // joins + departures since that clear
		joined   []*session  // sessions admitted since the previous round
		departed []int       // wire IDs reaped since the previous round
		prevByID map[int]int // standing matching: wire ID -> partner wire ID
	)
	cfg := s.marketConfig()

	for round := 0; ; round++ {
		if len(s.sessions) == 0 {
			// Every participant died and nobody joined.
			return s.closeEpoch(ep, nil, nil), nil
		}
		n := len(s.sessions)
		pop, err := s.population()
		if err != nil {
			return Message{}, err
		}
		pen := pop.Penalty(s.Penalties)

		full := round == 0 ||
			float64(churn) > rematch.ThresholdOrDefault(s.ChurnThreshold)*float64(baseN)

		var (
			out     *market.Outcome
			pushSet []int
		)
		if full {
			if round > 0 {
				// The rematch_round goes out before the market clears, so
				// its shard_matched events land in the fresh audit segment.
				s.emitRematchRound(ep.epoch, round, "full", wireChurn{
					Joined: sessionIDs(joined), Departed: departed,
				})
				s.Metrics.Counter("rematch.fulls").Inc()
			}
			out, err = market.Clear(context.Background(), cfg, s.marketRun(ep.epoch), pop, s.Penalties, false)
			if err != nil {
				return Message{}, err
			}
			baseN, churn = n, 0
			pushSet = everyone(n)
		} else {
			// Map the standing matching into this round's index space.
			// Joiners and agents displaced by departures are dirty: their
			// assignments must be recomputed.
			idxOf := make(map[int]int, n)
			for i, id := range pop.IDs {
				idxOf[id] = i
			}
			gone := make(map[int]bool, len(departed))
			for _, id := range departed {
				gone[id] = true
			}
			prev := make(matching.Matching, n)
			var dirty []int
			for i, sess := range s.sessions {
				pid, ok := prevByID[sess.id]
				switch {
				case !ok:
					prev[i] = matching.Unmatched
					dirty = append(dirty, i)
				case pid == matching.Unmatched:
					prev[i] = matching.Unmatched
				case gone[pid]:
					prev[i] = matching.Unmatched
					dirty = append(dirty, i)
				default:
					prev[i] = idxOf[pid]
				}
			}
			out, err = market.Repair(context.Background(), cfg, s.marketRun(ep.epoch), pop, s.Penalties, prev, dirty)
			if err != nil {
				return Message{}, err
			}
			nbhdIDs := make([]int, len(out.Neighborhood))
			for k, i := range out.Neighborhood {
				nbhdIDs[k] = pop.IDs[i]
			}
			s.emitRematchRound(ep.epoch, round, "repair", wireChurn{
				Joined: sessionIDs(joined), Departed: departed, Neighborhood: nbhdIDs,
			})
			s.Metrics.Counter("rematch.repairs").Inc()
			// Re-push to the agents whose assignments the repair touched,
			// plus every dirty agent — a joiner or displaced survivor the
			// repair left solo still needs its assignment (and the auditor
			// its explicit agent_unpaired record).
			pushMask := make(map[int]bool, len(out.Changed)+len(dirty))
			for _, i := range out.Changed {
				pushMask[i] = true
			}
			for _, i := range dirty {
				pushMask[i] = true
			}
			pushSet = make([]int, 0, len(pushMask))
			for i := range pushMask {
				pushSet = append(pushSet, i)
			}
			sort.Ints(pushSet)
		}
		match := out.Match

		// Agents outside the push set keep their standing assignment and
		// owe nothing.
		dead := s.pushCollect(ep, pushSet, match, out.ShardOf, pen)

		// Record the round's matching by wire ID before churn reshuffles
		// the index space; it is the next repair's baseline.
		prevByID = make(map[int]int, n)
		for i, sess := range s.sessions {
			if match[i] != matching.Unmatched {
				prevByID[sess.id] = s.sessions[match[i]].id
			} else {
				prevByID[sess.id] = matching.Unmatched
			}
		}

		// Absorb churn: reap the dead (their agent_reaped events precede
		// the rematch_round that declares them departed) and admit every
		// registration queued while the round ran.
		departed = nil
		seen := make(map[int]bool, len(dead))
		for _, sess := range dead {
			if !seen[sess.id] {
				seen[sess.id] = true
				departed = append(departed, sess.id)
			}
		}
		s.reapDegraded(ep, dead)
		joined = s.admitPending(ep.epoch)
		if len(departed) == 0 && len(joined) == 0 {
			return s.closeEpoch(ep, match, pen), nil
		}
		churn += len(departed) + len(joined)
		s.Metrics.Counter("rematch.joined").Add(int64(len(joined)))
		s.Metrics.Counter("rematch.departed").Add(int64(len(departed)))
	}
}

// sessionIDs lists the sessions' wire AgentIDs in order.
func sessionIDs(sessions []*session) []int {
	if len(sessions) == 0 {
		return nil
	}
	ids := make([]int, len(sessions))
	for i, sess := range sessions {
		ids[i] = sess.id
	}
	return ids
}
