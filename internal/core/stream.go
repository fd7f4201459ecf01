package core

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"

	"cooper/internal/market"
	"cooper/internal/rematch"
	"cooper/internal/telemetry"
	"cooper/internal/workload"
)

// Churn is one streaming epoch's population change: jobs arriving and
// agent IDs leaving. IDs are the stable identities EpochReport.AgentIDs
// carries — they survive across epochs as positions shift.
type Churn struct {
	// Join lists arriving jobs; each must name a catalog job.
	Join []workload.Job
	// Depart lists the stable IDs of agents leaving the market.
	Depart []int
}

// RematchSummary describes how a streaming epoch absorbed its churn.
type RematchSummary struct {
	// Mode is "repair" (incremental neighborhood repair) or "full"
	// (churn since the last full clear exceeded the threshold and the
	// market re-matched from scratch).
	Mode string
	// Joined and Departed count the epoch's churn.
	Joined   int
	Departed int
	// Neighborhood is how many agents' proposals were re-run (zero in
	// full mode), Changed how many ended with a different partner than
	// the prior epoch.
	Neighborhood int
	Changed      int
}

// streamState is the Framework's streaming-market ledger. Its mutex
// serializes StreamEpoch calls, which share the ledger.
type streamState struct {
	mu     sync.Mutex
	ledger rematch.Ledger
}

// rematchPayload is the rematch_round event's Data: the churn the round
// absorbed, in event-log agent IDs.
type rematchPayload struct {
	Joined       []int `json:"joined"`
	Departed     []int `json:"departed"`
	Neighborhood []int `json:"neighborhood,omitempty"`
}

// StreamEpoch plays one round of the streaming market: the churn's
// departures and arrivals are folded into the live population, and the
// prior epoch's stable matching is repaired incrementally around them —
// or re-matched from scratch when cumulative churn since the last full
// clear exceeds Market.ChurnThreshold. Requires Market.Rematch (the
// facade's WithRematch).
func (f *Framework) StreamEpoch(churn Churn) (*EpochReport, error) {
	return f.StreamEpochContext(context.Background(), churn)
}

// StreamEpochContext is StreamEpoch with cancellation. Unlike RunEpoch,
// consecutive calls share ledger state (the live population and its
// last matching), so calls must not overlap; they are serialized
// internally.
func (f *Framework) StreamEpochContext(ctx context.Context, churn Churn) (*EpochReport, error) {
	if !f.cfg.Market.Rematch {
		return nil, fmt.Errorf("core: streaming market disabled; enable Market.Rematch (cooper.WithRematch)")
	}
	ctx, leave, err := f.enter(ctx)
	if err != nil {
		return nil, err
	}
	defer leave()
	st := &f.stream
	st.mu.Lock()
	defer st.mu.Unlock()

	// Arriving jobs must be catalog jobs: the ledger tracks matrix rows.
	jobRow := make(map[string]int, len(f.catalog))
	for i, j := range f.catalog {
		jobRow[j.Name] = i
	}
	joinRows := make([]int, len(churn.Join))
	for i, j := range churn.Join {
		row, ok := jobRow[j.Name]
		if !ok {
			return nil, fmt.Errorf("core: joining job %q not in catalog", j.Name)
		}
		joinRows[i] = row
	}
	delta, err := st.ledger.Apply(joinRows, churn.Depart)
	if err != nil {
		return nil, err
	}
	n := len(delta.Agents)
	if n == 0 {
		return nil, fmt.Errorf("core: empty population after churn")
	}
	full := st.ledger.FullDue(f.cfg.Market.ChurnThreshold)

	// The streaming population: agent i runs its ledger job class and
	// carries its stable ID into every event.
	pop := market.Population{Jobs: make([]workload.Job, n), JobIdx: make([]int, n), IDs: make([]int, n)}
	for i, a := range delta.Agents {
		pop.Jobs[i] = f.catalog[a.Job]
		pop.JobIdx[i] = a.Job
		pop.IDs[i] = a.ID
	}
	summary := &RematchSummary{Joined: len(delta.Joined), Departed: len(delta.Departed)}
	rep := &EpochReport{Population: workload.Population{Jobs: pop.Jobs}, AgentIDs: pop.IDs, Rematch: summary}
	return f.runEpoch(ctx, rep, pop, func(ctx context.Context, epoch *telemetry.Span, run market.Run) (*market.Outcome, error) {
		payload := rematchPayload{
			Joined:   make([]int, 0, len(delta.Joined)),
			Departed: append([]int{}, delta.Departed...),
		}
		for _, i := range delta.Joined {
			payload.Joined = append(payload.Joined, pop.IDs[i])
		}
		emitRound := func(kind string) {
			data, _ := json.Marshal(payload)
			f.tel.RecordIn(epoch, telemetry.Event{
				Type: telemetry.EventRematchRound, Epoch: run.Epoch,
				Agent: -1, Partner: -1, Kind: kind, Round: 0,
				Value: float64(n), Data: string(data),
			})
		}
		reg := f.tel.Registry()

		var (
			out *market.Outcome
			err error
		)
		if full {
			summary.Mode = "full"
			emitRound("full")
			run.Span = f.tel.Phase(epoch, "match")
			out, err = market.Clear(ctx, f.cfg.Market, run, pop, f.predicted, false)
			if err != nil {
				return nil, err
			}
			run.Span.SetAttr("policy", f.cfg.Market.Policy.Name())
			run.Span.SetAttr("mode", "full")
			f.tel.End(run.Span)
			reg.Counter("rematch.fulls").Inc()
		} else {
			summary.Mode = "repair"
			run.Span = f.tel.Phase(epoch, "match")
			out, err = market.Repair(ctx, f.cfg.Market, run, pop, f.predicted, delta.Prev, delta.Dirty)
			if err != nil {
				return nil, err
			}
			run.Span.SetAttr("policy", f.cfg.Market.Policy.Name())
			run.Span.SetAttr("mode", "repair")
			run.Span.SetAttr("neighborhood", len(out.Neighborhood))
			run.Span.SetAttr("changed", len(out.Changed))
			f.tel.End(run.Span)
			summary.Neighborhood = len(out.Neighborhood)
			summary.Changed = len(out.Changed)
			payload.Neighborhood = make([]int, 0, len(out.Neighborhood))
			for _, i := range out.Neighborhood {
				payload.Neighborhood = append(payload.Neighborhood, pop.IDs[i])
			}
			emitRound("repair")
			reg.Counter("rematch.repairs").Inc()
		}
		if err := st.ledger.Commit(out.Match, full); err != nil {
			return nil, err
		}
		reg.Counter("rematch.joined").Add(int64(summary.Joined))
		reg.Counter("rematch.departed").Add(int64(summary.Departed))
		return out, nil
	})
}
