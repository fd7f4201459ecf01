package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"cooper/internal/agent"
	"cooper/internal/cluster"
	"cooper/internal/core"
	"cooper/internal/matching"
	"cooper/internal/parallel"
	"cooper/internal/policy"
	"cooper/internal/profiler"
	"cooper/internal/telemetry"
	"cooper/internal/workload"
)

// clearWorkload is the all-pairs market: core.RunEpochContext over one
// Uniform population, unsharded, epochs back to back.
type clearWorkload struct {
	Agents        int
	QualityEpochs int // epochs the quality metrics average over
}

// open builds the framework, returning it with its set-up time, and
// draws the population.
func (w clearWorkload) open(seed int64, recorder bool) (*core.Framework, *telemetry.Telemetry, workload.Population, float64, error) {
	tel := newTelemetry(frameworkSeed, recorder)
	fw, s, err := buildFramework(frameworkConfig(tel, core.MarketConfig{}))
	if err != nil {
		return nil, nil, workload.Population{}, 0, err
	}
	pop := population(w.Agents, fw.Catalog(), newRNG(parallel.SplitSeed(seed, populationStream)))
	return fw, tel, pop, s, nil
}

// measure runs the closed loop, setting up once more after every epoch
// so that the set-up times sample the whole run, as the epoch times do.
func (w clearWorkload) measure(seed int64, budget time.Duration) (*measured, error) {
	fw, _, pop, setup, err := w.open(seed, true)
	if err != nil {
		return nil, err
	}
	defer fw.Close()
	m := &measured{setup: []float64{setup}}
	m.leg, err = runLeg(0, w.QualityEpochs, budget, func(k int) (time.Duration, error) {
		m.attempted++
		t := time.Now()
		rep, err := fw.RunEpochContext(context.Background(), pop)
		d := time.Since(t)
		if err != nil {
			m.fail("epoch %d: %v", k, err)
			return d, err
		}
		if msg := checkReport(rep, len(pop.Jobs)); msg != "" {
			m.fail("epoch %d: %s", k, msg)
		}
		if k < w.QualityEpochs {
			m.quality.add(rep)
		}
		return d, nil
	}, func() error {
		s, err := timeSetup()
		m.setup = append(m.setup, s)
		return err
	})
	return m, err
}

// add folds one epoch report into the quality totals.
func (q *quality) add(rep *core.EpochReport) {
	q.agentEpochs += int64(len(rep.Match))
	for _, p := range rep.TruePenalty {
		q.penaltySum += p
	}
	q.breakaways += int64(rep.BreakAwayCount())
}

// checkReport validates one epoch's outputs: a valid matching over all n
// agents and per-agent vectors of length n. It returns "" when they hold.
func checkReport(rep *core.EpochReport, n int) string {
	if err := rep.Match.Validate(); err != nil {
		return fmt.Sprintf("invalid matching: %v", err)
	}
	for name, got := range map[string]int{
		"matching":          len(rep.Match),
		"true penalties":    len(rep.TruePenalty),
		"predicted penalty": len(rep.PredictedPenalty),
		"recommendations":   len(rep.Recommendations),
	} {
		if got != n {
			return fmt.Sprintf("%s cover %d agents, want %d", name, got, n)
		}
	}
	return ""
}

// digest fingerprints a matching's exact JSON encoding.
func digest(m matching.Matching) string {
	data, _ := json.Marshal(m)
	return fmt.Sprintf("%x", sha256.Sum256(data))
}

// compare checks the composed epoch k's matching against the untraced
// leg's fingerprint, recording the first divergence.
func (r *layerReport) compare(want []string, k int, got matching.Matching) {
	if r.mismatch != "" {
		return
	}
	switch {
	case k >= len(want):
		r.mismatch = fmt.Sprintf("epoch %d has no untraced counterpart", k)
	case digest(got) != want[k]:
		r.mismatch = fmt.Sprintf("epoch %d matching differs from the untraced EpochReport.Match", k)
	}
}

func (w clearWorkload) traced(seed int64, budget time.Duration, tr *tracer) (*layerReport, error) {
	lr := &layerReport{values: map[string]float64{}}
	legBudget := budget / 3

	// Leg 1: untraced, recorder on. Its epoch count fixes the others'.
	fw, tel, pop, _, err := w.open(seed, true)
	if err != nil {
		return nil, err
	}
	var want []string
	probe := startProbe(fw.PairCache(), tel)
	on, err := runLeg(0, 3, legBudget, func(k int) (time.Duration, error) {
		lr.attempted++
		t := time.Now()
		rep, err := fw.RunEpochContext(context.Background(), pop)
		d := time.Since(t)
		if err != nil {
			lr.fail("epoch %d: %v", k, err)
			return d, err
		}
		if msg := checkReport(rep, len(pop.Jobs)); msg != "" {
			lr.fail("epoch %d: %s", k, msg)
		}
		want = append(want, digest(rep.Match))
		return d, nil
	}, nil)
	fw.Close()
	if err != nil {
		return lr, err
	}
	probe.record(on.epochs, lr.values)
	lr.untracedP50 = median(on.latency)

	// Leg 2: the same pipeline composed from layer calls, traced.
	c, err := composeSetup(tr, lr, fw.PredictedPenalties())
	if err != nil {
		return lr, err
	}
	ce := &clearComposer{c: c, pop: pop, pol: &timedPolicy{inner: policy.StableMarriageRandom{}, tr: tr}, rng: newRNG(frameworkSeed)}
	tr.warmUp(0)
	for k := 0; k < on.epochs; k++ {
		match, err := ce.epoch(k, tr)
		if err != nil {
			return lr, err
		}
		lr.compare(want, k, match)
	}
	ce.record(on.epochs, lr.values)

	// Leg 3: untraced with the flight recorder off.
	fw, _, pop, _, err = w.open(seed, false)
	if err != nil {
		return lr, err
	}
	defer fw.Close()
	off, err := runLeg(on.epochs, 0, 0, func(k int) (time.Duration, error) {
		t := time.Now()
		_, err := fw.RunEpochContext(context.Background(), pop)
		return time.Since(t), err
	}, nil)
	if err != nil {
		return lr, err
	}
	lr.recorderOffP50 = median(off.latency)
	return lr, nil
}

// clearComposer runs core.RunEpochContext's unsharded pipeline from its
// layer calls, one span per call.
type clearComposer struct {
	c   *composed
	pop workload.Population
	pol *timedPolicy
	rng *rand.Rand
	assessment
	colocations int64
}

func (ce *clearComposer) epoch(k int, tr *tracer) (matching.Matching, error) {
	ctx := context.Background()
	c, pop, n := ce.c, ce.pop, len(ce.pop.Jobs)
	root := tr.begin(epochSpan, k, -1)
	defer tr.end(root)

	var predD [][]float64
	err := tr.call("profiler.expand", k, root, func() error {
		var err error
		predD, err = profiler.ExpandToAgents(c.predicted, c.catalog, pop)
		return err
	})
	if err != nil {
		return nil, err
	}
	bw := make([]float64, n)
	for i, j := range pop.Jobs {
		bw[i] = j.BandwidthGBps
	}
	ce.pol.under(k, root)
	match, err := ce.pol.Assign(predD, policy.Context{BandwidthGBps: bw, Rand: ce.rng, Metrics: c.reg})
	if err != nil {
		return nil, err
	}
	var recs []agent.Recommendation
	err = tr.call("agent.exchange", k, root, func() error {
		agents := make([]*agent.Agent, n)
		for i := range agents {
			agents[i] = agent.New(i, pop.Jobs[i].Name, predD[i])
		}
		var err error
		if recs, err = agent.Exchange(agents, match, 0); err != nil {
			return err
		}
		ce.count(recs)
		return nil
	})
	if err != nil {
		return nil, err
	}
	err = tr.call("policy.true_penalties", k, root, func() error {
		_, err := policy.TruePenalties(ctx, c.machine, pop.Jobs, match, workers(), c.cache)
		return err
	})
	if err != nil {
		return nil, err
	}
	ce.colocations += int64(dispatch(tr, k, root, c.cluster, pop.Jobs, match))
	return match, nil
}

// assessment totals the agents' recommendations the way core's epoch
// report does: blocking pairs, break-aways and agent-epochs.
type assessment struct {
	blockingPairs, breakaways, agentEpochs int64
}

func (a *assessment) count(recs []agent.Recommendation) {
	a.blockingPairs += int64(len(agent.BlockingPairsFromRecommendations(recs)))
	for _, r := range recs {
		if r.Action == agent.BreakAway {
			a.breakaways++
		}
	}
	a.agentEpochs += int64(len(recs))
}

// record stores the per-epoch assessment counters.
func (a *assessment) record(epochs int, values map[string]float64) {
	values["agent.blocking_pairs"] = float64(a.blockingPairs) / float64(epochs)
	values["agent.breakaways"] = float64(a.breakaways) / float64(epochs)
	values["quality.blocking_pairs_per_agent"] = float64(a.blockingPairs) / float64(max64(a.agentEpochs, 1))
}

// record stores the composed epochs' per-epoch counters.
func (ce *clearComposer) record(epochs int, values map[string]float64) {
	e := float64(epochs)
	values["matching.proposals"] = float64(ce.c.reg.Counter("match.proposals").Value()) / e
	values["matching.rotations"] = float64(ce.c.reg.Counter("match.rotations").Value()) / e
	values["cluster.colocations"] = float64(ce.colocations) / e
	ce.assessment.record(epochs, values)
}

// dispatch sends an epoch's colocations to the cluster as core does, in
// a cluster.dispatch span, and returns how many it sent.
func dispatch(tr *tracer, k, parent int, cl *cluster.Cluster, jobs []workload.Job, match matching.Matching) int {
	id := tr.begin("cluster.dispatch", k, parent)
	defer tr.end(id)
	cl.Reset()
	var batch []cluster.Assignment
	for i, j := range match {
		switch {
		case j == matching.Unmatched:
			batch = append(batch, cluster.Assignment{AgentA: i, AgentB: -1, JobA: jobs[i]})
		case i < j:
			batch = append(batch, cluster.Assignment{AgentA: i, AgentB: j, JobA: jobs[i], JobB: jobs[j]})
		}
	}
	cl.Summarize(cl.Dispatch(batch))
	return len(batch)
}
