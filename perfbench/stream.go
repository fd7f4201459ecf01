package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"cooper/internal/core"
	"cooper/internal/matching"
	"cooper/internal/parallel"
	"cooper/internal/policy"
	"cooper/internal/rematch"
	"cooper/internal/shard"
	"cooper/internal/telemetry"
	"cooper/internal/workload"
)

// streamWorkload is the sharded streaming market: core.StreamEpochContext
// over a population admitted cold in one epoch, then ChurnPct percent of
// it joining and as many departing every epoch, with Market.Rematch and
// the default churn threshold.
type streamWorkload struct {
	Agents        int
	Shards        int
	ChurnPct      float64
	QualityEpochs int // churn epochs the quality metrics average over
	SetupRepeats  int
}

func (w streamWorkload) market() core.MarketConfig {
	return core.MarketConfig{Shards: w.Shards, Rematch: true}
}

// roster is the benchmark's own account of the live population: the
// stable IDs the ledger should hold after the churn applied so far, and
// the job each runs. The ledger numbers arrivals consecutively from 0.
type roster struct {
	ids  []int // live IDs, ascending
	job  map[int]string
	next int
}

func newRoster() *roster { return &roster{job: map[int]string{}} }

// apply folds one epoch's churn in: departures leave, then arrivals get
// fresh IDs, as rematch.Ledger.Apply orders them.
func (r *roster) apply(ch core.Churn) {
	gone := make(map[int]bool, len(ch.Depart))
	for _, id := range ch.Depart {
		gone[id] = true
		delete(r.job, id)
	}
	live := r.ids[:0]
	for _, id := range r.ids {
		if !gone[id] {
			live = append(live, id)
		}
	}
	r.ids = live
	for _, j := range ch.Join {
		r.ids = append(r.ids, r.next)
		r.job[r.next] = j.Name
		r.next++
	}
}

// check reports "" when the epoch's roster is exactly the live
// population the applied churn implies.
func (r *roster) check(rep *core.EpochReport) string {
	if len(rep.AgentIDs) != len(r.ids) || len(rep.Population.Jobs) != len(r.ids) {
		return fmt.Sprintf("roster holds %d agents, churn implies %d", len(rep.AgentIDs), len(r.ids))
	}
	seen := make(map[int]bool, len(r.ids))
	for i, id := range rep.AgentIDs {
		job, ok := r.job[id]
		if !ok || seen[id] {
			return fmt.Sprintf("roster agent %d is not live or listed twice", id)
		}
		if rep.Population.Jobs[i].Name != job {
			return fmt.Sprintf("roster agent %d runs %s, joined as %s", id, rep.Population.Jobs[i].Name, job)
		}
		seen[id] = true
	}
	return ""
}

// churner draws each epoch's churn from the workload seed.
type churner struct {
	rng     *rand.Rand
	size    int
	catalog []workload.Job
}

func (w streamWorkload) churner(seed int64, catalog []workload.Job) *churner {
	return &churner{
		rng:     newRNG(parallel.SplitSeed(seed, churnStream)),
		size:    int(float64(w.Agents) * w.ChurnPct / 100),
		catalog: catalog,
	}
}

// next draws size arrivals and size distinct departures from the live
// roster, and folds them into it.
func (c *churner) next(r *roster) core.Churn {
	ch := core.Churn{Join: population(c.size, c.catalog, c.rng).Jobs}
	for _, i := range c.rng.Perm(len(r.ids))[:c.size] {
		ch.Depart = append(ch.Depart, r.ids[i])
	}
	r.apply(ch)
	return ch
}

// streamSession is one framework past its cold admission epoch.
type streamSession struct {
	fw     *core.Framework
	tel    *telemetry.Telemetry
	roster *roster
	churn  *churner
}

// open builds the framework and admits the initial population cold,
// repeats times, keeping the last; each repeat's set-up time includes
// its admission epoch. The admission report goes through the checks.
func (w streamWorkload) open(seed int64, recorder bool, repeats int, check func(*core.EpochReport, *roster)) (*streamSession, []float64, error) {
	var s *streamSession
	var setup []float64
	for r := 0; r < max(repeats, 1); r++ {
		if s != nil {
			s.fw.Close()
		}
		settleHeap()
		start := time.Now()
		tel := newTelemetry(frameworkSeed, recorder)
		fw, err := core.NewFramework(frameworkConfig(tel, w.market()))
		if err != nil {
			return nil, nil, fmt.Errorf("build framework: %w", err)
		}
		s = &streamSession{fw: fw, tel: tel, roster: newRoster(), churn: w.churner(seed, fw.Catalog())}
		admit := core.Churn{Join: population(w.Agents, fw.Catalog(), newRNG(parallel.SplitSeed(seed, populationStream))).Jobs}
		s.roster.apply(admit)
		rep, err := fw.StreamEpochContext(context.Background(), admit)
		if err != nil {
			fw.Close()
			return nil, nil, fmt.Errorf("admission epoch: %w", err)
		}
		setup = append(setup, time.Since(start).Seconds())
		check(rep, s.roster)
	}
	return s, setup, nil
}

// checkStream runs the output checks on one streaming epoch.
func checkStream(rep *core.EpochReport, r *roster) string {
	if msg := checkReport(rep, len(r.ids)); msg != "" {
		return msg
	}
	return r.check(rep)
}

func (w streamWorkload) measure(seed int64, budget time.Duration) (*measured, error) {
	m := &measured{}
	s, setup, err := w.open(seed, true, w.SetupRepeats, func(rep *core.EpochReport, r *roster) {
		m.attempted++
		if msg := checkStream(rep, r); msg != "" {
			m.fail("admission: %s", msg)
		}
	})
	if err != nil {
		return nil, err
	}
	defer s.fw.Close()
	m.setup = setup
	m.leg, err = runLeg(0, w.QualityEpochs, budget, func(k int) (time.Duration, error) {
		m.attempted++
		churn := s.churn.next(s.roster)
		t := time.Now()
		rep, err := s.fw.StreamEpochContext(context.Background(), churn)
		d := time.Since(t)
		if err != nil {
			m.fail("epoch %d: %v", k, err)
			return d, err
		}
		if msg := checkStream(rep, s.roster); msg != "" {
			m.fail("epoch %d: %s", k, msg)
		}
		if k < w.QualityEpochs {
			m.quality.add(rep)
		}
		return d, nil
	}, nil)
	return m, err
}

func (w streamWorkload) traced(seed int64, budget time.Duration, tr *tracer) (*layerReport, error) {
	lr := &layerReport{values: map[string]float64{}}
	legBudget := budget / 3
	var want []string
	checked := func(rep *core.EpochReport, r *roster) {
		lr.attempted++
		if msg := checkStream(rep, r); msg != "" {
			lr.fail("epoch %d: %s", len(want), msg)
		}
		want = append(want, digest(rep.Match))
	}

	// Leg 1: untraced, recorder on. Epoch 0 is the admission epoch.
	s, _, err := w.open(seed, true, 1, checked)
	if err != nil {
		return nil, err
	}
	probe := startProbe(s.fw.PairCache(), s.tel)
	on, err := runLeg(0, 3, legBudget, func(k int) (time.Duration, error) {
		churn := s.churn.next(s.roster)
		t := time.Now()
		rep, err := s.fw.StreamEpochContext(context.Background(), churn)
		d := time.Since(t)
		if err != nil {
			lr.attempted++
			lr.fail("epoch %d: %v", k+1, err)
			return d, err
		}
		checked(rep, s.roster)
		return d, nil
	}, nil)
	s.fw.Close()
	if err != nil {
		return lr, err
	}
	probe.record(on.epochs, lr.values)
	lr.untracedP50 = median(on.latency)

	// Leg 2: composed and traced, admission included.
	c, err := composeSetup(tr, lr, s.fw.PredictedPenalties())
	if err != nil {
		return lr, err
	}
	sc := &streamComposer{w: w, c: c, rng: newRNG(frameworkSeed), pol: &timedPolicy{inner: policy.StableMarriageRandom{}, tr: tr}}
	r := newRoster()
	ch := w.churner(seed, c.catalog)
	admit := core.Churn{Join: population(w.Agents, c.catalog, newRNG(parallel.SplitSeed(seed, populationStream))).Jobs}
	r.apply(admit)
	tr.warmUp(0)
	tr.warmUp(1)
	tr.side["shard.partition"] = true
	for k := 0; k <= on.epochs; k++ {
		churn := admit
		if k > 0 {
			churn = ch.next(r)
		}
		match, err := sc.epoch(k, churn, tr)
		if err != nil {
			return lr, err
		}
		lr.compare(want, k, match)
	}
	sc.record(on.epochs+1, lr.values)

	// Leg 3: untraced with the flight recorder off.
	s, _, err = w.open(seed, false, 1, func(*core.EpochReport, *roster) {})
	if err != nil {
		return lr, err
	}
	defer s.fw.Close()
	off, err := runLeg(on.epochs, 0, 0, func(k int) (time.Duration, error) {
		churn := s.churn.next(s.roster)
		t := time.Now()
		_, err := s.fw.StreamEpochContext(context.Background(), churn)
		return time.Since(t), err
	}, nil)
	if err != nil {
		return lr, err
	}
	lr.recorderOffP50 = median(off.latency)
	return lr, nil
}

// streamComposer runs core.StreamEpochContext's sharded pipeline from
// its layer calls, one span per call.
type streamComposer struct {
	w      streamWorkload
	c      *composed
	ledger rematch.Ledger
	rng    *rand.Rand
	pol    *timedPolicy

	// totals over the composed epochs
	assessment
	fulls, repairs             int
	refineRounds, refineTrades int
	neighborhood, changed      int
	colocations                int64
	sizeRatioSum               float64
}

func (sc *streamComposer) epoch(k int, churn core.Churn, tr *tracer) (matching.Matching, error) {
	ctx := context.Background()
	c := sc.c
	jobRow := make(map[string]int, len(c.catalog))
	for i, j := range c.catalog {
		jobRow[j.Name] = i
	}
	joinRows := make([]int, len(churn.Join))
	for i, j := range churn.Join {
		row, ok := jobRow[j.Name]
		if !ok {
			return nil, fmt.Errorf("joining job %q not in catalog", j.Name)
		}
		joinRows[i] = row
	}

	root := tr.begin(epochSpan, k, -1)
	var delta *rematch.Delta
	err := tr.call("rematch.apply", k, root, func() error {
		var err error
		delta, err = sc.ledger.Apply(joinRows, churn.Depart)
		return err
	})
	if err != nil {
		tr.end(root)
		return nil, err
	}
	n := len(delta.Agents)
	full := sc.ledger.FullDue(0)
	jobs := make([]workload.Job, n)
	ids := make([]int, n)
	jobIdx := make([]int, n)
	for i, a := range delta.Agents {
		jobs[i] = c.catalog[a.Job]
		ids[i] = a.ID
		jobIdx[i] = a.Job
	}
	mk := &shard.Market{
		Shards:  sc.w.Shards,
		Policy:  sc.pol,
		Workers: workers(),
		Seed:    sc.rng.Int63(),
		Epoch:   k,
		IDs:     ids,
		Tel:     &telemetry.Telemetry{Metrics: c.reg},
	}
	var match matching.Matching
	if full {
		mk.SkipRecommendations = true
		id := tr.begin("shard.clear", k, root)
		sc.pol.under(k, id)
		res, err := mk.Clear(ctx, jobs, jobIdx, c.predicted)
		tr.end(id)
		if err != nil {
			tr.end(root)
			return nil, err
		}
		match = res.Match
		sc.fulls++
		sc.refineRounds += res.RefinementRounds
		sc.refineTrades += res.RefinementTrades
	} else {
		id := tr.begin("shard.repair", k, root)
		sc.pol.under(k, id)
		res, err := mk.Repair(ctx, jobs, jobIdx, c.predicted, delta.Prev, delta.Dirty, 0)
		tr.end(id)
		if err != nil {
			tr.end(root)
			return nil, err
		}
		match = res.Match
		sc.repairs++
		sc.neighborhood += len(res.Neighborhood)
		sc.changed += len(res.Changed)
	}
	err = tr.call("rematch.commit", k, root, func() error { return sc.ledger.Commit(match, full) })
	if err != nil {
		tr.end(root)
		return nil, err
	}
	tr.call("rematch.recommendations", k, root, func() error {
		sc.count(rematch.Recommendations(jobIdx, c.predicted, match, 0, 0))
		return nil
	})
	err = tr.call("policy.true_penalties", k, root, func() error {
		_, err := policy.TruePenalties(ctx, c.machine, jobs, match, workers(), c.cache)
		return err
	})
	if err != nil {
		tr.end(root)
		return nil, err
	}
	sc.colocations += int64(dispatch(tr, k, root, c.cluster, jobs, match))
	tr.end(root)

	// Outside the epoch span: the partition the market computed inside
	// Clear or Repair, repeated on its own to time it and size shards.
	var groups [][]int
	tr.call("shard.partition", k, -1, func() error {
		_, groups = shard.NewRing(sc.w.Shards).PartitionIDs(jobs, ids)
		return nil
	})
	largest := 0
	for _, g := range groups {
		largest = max(largest, len(g))
	}
	sc.sizeRatioSum += float64(largest) / (float64(n) / float64(len(groups)))
	return match, nil
}

// record stores the composed epochs' per-epoch counters.
func (sc *streamComposer) record(epochs int, values map[string]float64) {
	e := float64(epochs)
	values["matching.proposals"] = float64(sc.c.reg.Counter("match.proposals").Value()) / e
	values["matching.rotations"] = float64(sc.c.reg.Counter("match.rotations").Value()) / e
	values["cluster.colocations"] = float64(sc.colocations) / e
	values["shard.size_max_over_mean"] = sc.sizeRatioSum / e
	if sc.fulls > 0 {
		values["shard.refine_rounds"] = float64(sc.refineRounds) / float64(sc.fulls)
		values["shard.refine_trades"] = float64(sc.refineTrades) / float64(sc.fulls)
	}
	if sc.repairs > 0 {
		values["rematch.neighborhood"] = float64(sc.neighborhood) / float64(sc.repairs)
		values["rematch.changed"] = float64(sc.changed) / float64(sc.repairs)
	}
	if sc.neighborhood > 0 {
		values["rematch.useful_ratio"] = float64(sc.changed) / float64(sc.neighborhood)
	}
	values["rematch.full_share"] = float64(sc.fulls) / e
	sc.assessment.record(epochs, values)
}
