package market

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"cooper/internal/agent"
	"cooper/internal/matching"
	"cooper/internal/policy"
	"cooper/internal/profiler"
	"cooper/internal/rematch"
	"cooper/internal/shard"
	"cooper/internal/workload"
)

// testMatrix is a deterministic job-level penalty matrix over k classes
// with all off-diagonal entries distinct.
func testMatrix(k int) [][]float64 {
	m := make([][]float64, k)
	for i := range m {
		m[i] = make([]float64, k)
		for j := range m[i] {
			m[i][j] = 0.05 + 0.13*float64(i) + 0.031*float64(j)
		}
	}
	return m
}

// ledgerPopulation is the delta's population: agent i runs job class
// a.Job, whose standalone bandwidth is a.Job+1.
func ledgerPopulation(d *rematch.Delta) Population {
	n := len(d.Agents)
	pop := Population{Jobs: make([]workload.Job, n), JobIdx: make([]int, n), IDs: make([]int, n)}
	for i, a := range d.Agents {
		pop.Jobs[i] = workload.Job{Name: string(rune('a' + a.Job)), BandwidthGBps: float64(a.Job + 1)}
		pop.JobIdx[i] = a.Job
		pop.IDs[i] = a.ID
	}
	return pop
}

// An unsharded repair over a ledger delta re-matches only the
// neighborhood: every agent outside it keeps its prior partner.
func TestRepairUnshardedEndToEnd(t *testing.T) {
	matrix := testMatrix(4)
	cfg := Config{Policy: policy.Greedy{}, RematchTopK: 4}
	run := Run{Rand: rand.New(rand.NewSource(7))}
	var l rematch.Ledger
	jobs := make([]int, 40)
	for i := range jobs {
		jobs[i] = i % 4
	}
	d, err := l.Apply(jobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Clear(context.Background(), cfg, run, ledgerPopulation(d), matrix, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(full.Match, true); err != nil {
		t.Fatal(err)
	}

	// One departure, one join: repair the standing matching.
	d, err = l.Apply([]int{2}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Repair(context.Background(), cfg, run, ledgerPopulation(d), matrix, d.Prev, d.Dirty)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Match.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.ShardOf != nil {
		t.Fatal("unsharded repair reported shards")
	}
	inN := make(map[int]bool)
	for _, i := range res.Neighborhood {
		inN[i] = true
	}
	for i := range res.Match {
		if !inN[i] && res.Match[i] != d.Prev[i] {
			t.Fatalf("agent %d outside neighborhood changed partner %d -> %d",
				i, d.Prev[i], res.Match[i])
		}
	}
	if len(res.Neighborhood) >= len(d.Agents) {
		t.Fatalf("neighborhood %d not smaller than population %d",
			len(res.Neighborhood), len(d.Agents))
	}
	if err := l.Commit(res.Match, false); err != nil {
		t.Fatal(err)
	}
}

// testPopulation is n agents cycling over four job classes.
func testPopulation(n int) Population {
	d := &rematch.Delta{Agents: make([]rematch.Agent, n)}
	for i := range d.Agents {
		d.Agents[i] = rematch.Agent{ID: 100 + i, Job: i % 4}
	}
	return ledgerPopulation(d)
}

// The unsharded clear is the all-pairs pipeline on the caller's RNG:
// expand, assign, and (only when asked) the message exchange.
func TestClearUnshardedIsAllPairs(t *testing.T) {
	pop, matrix := testPopulation(30), testMatrix(4)
	cfg := Config{Policy: policy.StableMarriageRandom{}, Alpha: 0.01}
	got, err := Clear(context.Background(), cfg, Run{Rand: rand.New(rand.NewSource(3))}, pop, matrix, true)
	if err != nil {
		t.Fatal(err)
	}

	d := profiler.ExpandRows(matrix, pop.JobIdx)
	want, err := cfg.Policy.Assign(d, policy.Context{BandwidthGBps: pop.bandwidths(), Rand: rand.New(rand.NewSource(3))})
	if err != nil {
		t.Fatal(err)
	}
	agents := make([]*agent.Agent, len(d))
	for i := range agents {
		agents[i] = agent.New(i, pop.Jobs[i].Name, d[i])
	}
	recs, err := agent.Exchange(agents, want, cfg.Alpha)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, &Outcome{Match: want, Recommendations: recs}) {
		t.Fatalf("engine clear = %+v, want the all-pairs pipeline's %v", got, want)
	}

	noRecs, err := Clear(context.Background(), cfg, Run{Rand: rand.New(rand.NewSource(3))}, pop, matrix, false)
	if err != nil {
		t.Fatal(err)
	}
	if noRecs.Recommendations != nil || !reflect.DeepEqual(noRecs.Match, want) {
		t.Fatalf("clear without recommendations = %+v", noRecs)
	}
}

// Sharded, the engine delegates to shard.Market with a seed drawn once
// from the caller's RNG, keyed by the population's IDs.
func TestShardedDelegatesToShardMarket(t *testing.T) {
	pop, matrix := testPopulation(200), testMatrix(4)
	cfg := Config{Policy: policy.Greedy{}, Shards: 4, Alpha: 0.01}
	rng := rand.New(rand.NewSource(9))
	got, err := Clear(context.Background(), cfg, Run{Rand: rng, Epoch: 2}, pop, matrix, true)
	if err != nil {
		t.Fatal(err)
	}
	ref := rand.New(rand.NewSource(9))
	mk := &shard.Market{Shards: 4, Policy: cfg.Policy, Alpha: cfg.Alpha, Seed: ref.Int63(), Epoch: 2, IDs: pop.IDs}
	want, err := mk.Clear(context.Background(), pop.Jobs, pop.JobIdx, matrix)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Match, want.Match) || !reflect.DeepEqual(got.ShardOf, want.ShardOf) ||
		!reflect.DeepEqual(got.Recommendations, want.Recommendations) ||
		got.RefinementRounds != want.RefinementRounds || got.RefinementTrades != want.RefinementTrades {
		t.Fatal("sharded clear differs from shard.Market.Clear")
	}
	if rng.Int63() != ref.Int63() {
		t.Fatal("sharded clear drew from the caller's RNG more than once")
	}

	// Repair a few severed pairs the same way.
	prev := append(matching.Matching(nil), got.Match...)
	var dirty []int
	for _, i := range []int{5, 77, 150} {
		if p := prev[i]; p != matching.Unmatched {
			prev[p] = matching.Unmatched
			dirty = append(dirty, p)
		}
		prev[i] = matching.Unmatched
		dirty = append(dirty, i)
	}
	rep, err := Repair(context.Background(), cfg, Run{Rand: rng, Epoch: 3}, pop, matrix, prev, dirty)
	if err != nil {
		t.Fatal(err)
	}
	mk.Seed, mk.Epoch = ref.Int63(), 3
	wantRep, err := mk.Repair(context.Background(), pop.Jobs, pop.JobIdx, matrix, prev, dirty, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, &Outcome{Match: wantRep.Match, ShardOf: wantRep.ShardOf,
		Neighborhood: wantRep.Neighborhood, Changed: wantRep.Changed}) {
		t.Fatal("sharded repair differs from shard.Market.Repair")
	}
}

func TestEngineNeedsPolicy(t *testing.T) {
	pop, matrix := testPopulation(4), testMatrix(4)
	if _, err := Clear(context.Background(), Config{}, Run{}, pop, matrix, false); err == nil {
		t.Error("clear without a policy accepted")
	}
	if _, err := Repair(context.Background(), Config{}, Run{}, pop, matrix, make(matching.Matching, 4), nil); err == nil {
		t.Error("repair without a policy accepted")
	}
}

func TestNewPopulation(t *testing.T) {
	catalog := []workload.Job{{Name: "a"}, {Name: "b"}, {Name: "c"}}
	pop, err := NewPopulation(catalog, []workload.Job{{Name: "c"}, {Name: "a"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pop.JobIdx, []int{2, 0}) || !reflect.DeepEqual(pop.IDs, []int{0, 1}) {
		t.Fatalf("population = %+v", pop)
	}
	if _, err := NewPopulation(catalog, []workload.Job{{Name: "ghost"}}, nil); err == nil {
		t.Error("off-catalog job accepted")
	}
}
