package rematch

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"cooper/internal/agent"
	"cooper/internal/matching"
	"cooper/internal/policy"
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

// penFor adapts a job-level matrix to an agent-level lookup.
func penFor(jobIdx []int, matrix [][]float64) func(i, j int) float64 {
	return func(i, j int) float64 { return matrix[jobIdx[i]][jobIdx[j]] }
}

func TestLedgerApplyJoinsAndDepartures(t *testing.T) {
	var l Ledger

	// Cold start: four joiners, everybody dirty, a full clear is due.
	d, err := l.Apply([]int{0, 1, 0, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Agents) != 4 || len(d.Joined) != 4 || len(d.Dirty) != 4 {
		t.Fatalf("cold delta = %+v", d)
	}
	if !l.FullDue(0.10) {
		t.Error("never-cleared ledger should force a full clear")
	}
	if err := l.Commit(matching.Matching{1, 0, 3, 2}, true); err != nil {
		t.Fatal(err)
	}
	if churn, baseN := l.Churn(); churn != 0 || baseN != 4 {
		t.Fatalf("after full commit churn=%d baseN=%d", churn, baseN)
	}
	if l.FullDue(0.10) {
		t.Error("freshly cleared ledger should not be due")
	}

	// Agent 0 departs: its partner (ID 1) is displaced and dirty; the
	// pair 2+3 is untouched.
	d, err = l.Apply(nil, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(d.Agents); got != 3 {
		t.Fatalf("post-departure population = %d", got)
	}
	if !reflect.DeepEqual(d.Departed, []int{0}) {
		t.Fatalf("Departed = %v", d.Departed)
	}
	// Survivors keep order: IDs 1, 2, 3 at indices 0, 1, 2. Only index 0
	// (ID 1) is dirty.
	if !reflect.DeepEqual(d.Dirty, []int{0}) {
		t.Fatalf("Dirty = %v", d.Dirty)
	}
	if d.Prev[0] != matching.Unmatched {
		t.Fatalf("displaced agent carries prev partner %d", d.Prev[0])
	}
	if d.Prev[1] != 2 || d.Prev[2] != 1 {
		t.Fatalf("untouched pair remapped wrong: %v", d.Prev)
	}
	if churn, _ := l.Churn(); churn != 1 {
		t.Fatalf("churn after one departure = %d", churn)
	}

	// A join appends under a fresh ID, never reusing 0.
	d, err = l.Apply([]int{1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	joiner := d.Agents[d.Joined[0]]
	if joiner.ID != 4 {
		t.Fatalf("joiner got recycled ID %d", joiner.ID)
	}
	if churn, _ := l.Churn(); churn != 2 {
		t.Fatalf("cumulative churn = %d", churn)
	}
}

func TestLedgerApplyErrors(t *testing.T) {
	var l Ledger
	if _, err := l.Apply(nil, []int{7}); err == nil {
		t.Error("depart of unknown agent accepted")
	}
	if _, err := l.Apply([]int{0, 0}, nil); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(matching.Matching{1, 0}, true); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Apply(nil, []int{0, 0}); err == nil {
		t.Error("duplicate depart accepted")
	}
	// Failed Apply leaves the ledger untouched.
	if l.Len() != 2 {
		t.Fatalf("ledger mutated on error: len=%d", l.Len())
	}
	if err := l.Commit(matching.Matching{0}, false); err == nil {
		t.Error("short commit accepted")
	}
}

func TestFullDueThreshold(t *testing.T) {
	var l Ledger
	if _, err := l.Apply(make([]int, 20), nil); err != nil {
		t.Fatal(err)
	}
	m := make(matching.Matching, 20)
	for i := range m {
		if i%2 == 0 {
			m[i] = i + 1
		} else {
			m[i] = i - 1
		}
	}
	if err := l.Commit(m, true); err != nil {
		t.Fatal(err)
	}
	// 2/20 churn: exactly at the 10% default, not beyond it.
	if _, err := l.Apply([]int{0, 0}, nil); err != nil {
		t.Fatal(err)
	}
	if l.FullDue(0) {
		t.Error("churn equal to threshold should not force a full clear")
	}
	if _, err := l.Apply([]int{0}, nil); err != nil {
		t.Fatal(err)
	}
	if !l.FullDue(0) {
		t.Error("churn beyond threshold should force a full clear")
	}
	if l.FullDue(0.5) {
		t.Error("looser threshold should still be under budget")
	}
}

func TestNeighborhoodClosureAndTopK(t *testing.T) {
	// Six agents over three classes, paired (0,1) (2,3) (4,5); agent 0
	// is dirty.
	jobIdx := []int{0, 1, 2, 0, 1, 2}
	matrix := testMatrix(3)
	pen := penFor(jobIdx, matrix)
	prev := matching.Matching{matching.Unmatched, 3, 5, 1, matching.Unmatched, 2}

	nbhd := Neighborhood([]int{0}, nil, prev, pen, 2)
	inN := make(map[int]bool)
	for _, i := range nbhd {
		inN[i] = true
	}
	if !inN[0] {
		t.Fatalf("dirty agent missing from neighborhood %v", nbhd)
	}
	// Closure: every member's prev partner is a member.
	for _, i := range nbhd {
		if p := prev[i]; p != matching.Unmatched && !inN[p] {
			t.Fatalf("neighborhood %v not closed: %d's partner %d missing", nbhd, i, p)
		}
	}
	if !sort.IntsAreSorted(nbhd) {
		t.Fatalf("neighborhood not ascending: %v", nbhd)
	}

	// With a huge K everyone is pulled in.
	all := Neighborhood([]int{0}, nil, prev, pen, 100)
	if len(all) != 6 {
		t.Fatalf("topK=100 neighborhood = %v, want all 6", all)
	}

	// Restricting the pool excludes members whose partner is outside it:
	// 1 is paired with 3, and 3 is outside the pool, so 1 cannot be a
	// candidate — but 5's partner 2 is in the pool.
	pool := Neighborhood([]int{0}, []int{0, 1, 2, 5}, prev, pen, 100)
	for _, i := range pool {
		if i == 1 || i == 3 {
			t.Fatalf("pool-restricted neighborhood %v pulled in %d", pool, i)
		}
	}
}

func TestRewirePreservesOutsidePairs(t *testing.T) {
	jobIdx := []int{0, 1, 2, 0, 1, 2, 0, 1}
	matrix := testMatrix(3)
	pen := penFor(jobIdx, matrix)
	bw := make([]float64, len(jobIdx))
	for i := range bw {
		bw[i] = 1 + float64(i)
	}
	prev := matching.Matching{1, 0, 3, 2, 5, 4, 7, 6}
	nbhd := []int{0, 1, 2, 3} // closed under prev partnership

	match, changed, err := Rewire(nbhd, prev, pen, bw, policy.Greedy{}, rand.New(rand.NewSource(1)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := match.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{4, 5, 6, 7} {
		if match[i] != prev[i] {
			t.Fatalf("outside pair broken: agent %d now %d", i, match[i])
		}
	}
	for _, i := range changed {
		if i >= 4 {
			t.Fatalf("changed %v lists an outside agent", changed)
		}
		if match[i] == prev[i] {
			t.Fatalf("agent %d listed changed but kept partner %d", i, match[i])
		}
	}
	for _, i := range nbhd {
		if match[i] != prev[i] {
			found := false
			for _, c := range changed {
				if c == i {
					found = true
				}
			}
			if !found {
				t.Fatalf("agent %d changed (%d -> %d) but not listed", i, prev[i], match[i])
			}
		}
	}
}

func nbhdAll(n int) []int {
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	return all
}

func TestRecommendationsParityWithExchange(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		classes := 2 + rng.Intn(4)
		n := 4 + rng.Intn(20)
		matrix := make([][]float64, classes)
		for i := range matrix {
			matrix[i] = make([]float64, classes)
			for j := range matrix[i] {
				matrix[i][j] = rng.Float64()
			}
		}
		jobIdx := make([]int, n)
		for i := range jobIdx {
			jobIdx[i] = rng.Intn(classes)
		}
		match := make(matching.Matching, n)
		for i := range match {
			match[i] = matching.Unmatched
		}
		perm := rng.Perm(n)
		for k := 0; k+1 < len(perm); k += 2 {
			if rng.Intn(4) == 0 {
				continue // leave some solo
			}
			match[perm[k]], match[perm[k+1]] = perm[k+1], perm[k]
		}
		alpha := rng.Float64() * 0.3

		agents := make([]*agent.Agent, n)
		for i := range agents {
			row := make([]float64, n)
			for j := range row {
				row[j] = matrix[jobIdx[i]][jobIdx[j]]
			}
			agents[i] = agent.New(i, "", row)
		}
		want, err := agent.Exchange(agents, match, alpha)
		if err != nil {
			t.Fatal(err)
		}
		got := Recommendations(jobIdx, matrix, match, alpha, n)
		for i := range want {
			if got[i].Action != want[i].Action {
				t.Fatalf("trial %d agent %d action = %v, want %v", trial, i, got[i].Action, want[i].Action)
			}
			if got[i].ExpectedGain != want[i].ExpectedGain {
				t.Fatalf("trial %d agent %d gain = %v, want %v (exact parity required)",
					trial, i, got[i].ExpectedGain, want[i].ExpectedGain)
			}
			// Partner lists agree as sets (ordering differs only on exact
			// penalty ties, which random floats all but rule out).
			g := append([]int(nil), got[i].BlockingPartners...)
			w := append([]int(nil), want[i].BlockingPartners...)
			sort.Ints(g)
			sort.Ints(w)
			if !reflect.DeepEqual(g, w) {
				t.Fatalf("trial %d agent %d partners = %v, want %v", trial, i, g, w)
			}
		}
	}
}

func TestRecommendationsCap(t *testing.T) {
	// Every pair crosses two classes that hate each other but love
	// themselves, so each agent sees all 14 same-class agents as
	// blocking partners.
	n := 30
	jobIdx := make([]int, n)
	match := make(matching.Matching, n)
	for i := range jobIdx {
		jobIdx[i] = i % 2
		match[i] = i ^ 1
	}
	matrix := [][]float64{{0.1, 0.9}, {0.9, 0.1}}
	recs := Recommendations(jobIdx, matrix, match, 0, 5)
	for _, r := range recs {
		if len(r.BlockingPartners) > 5 {
			t.Fatalf("agent %d lists %d partners over cap", r.AgentID, len(r.BlockingPartners))
		}
	}
	if recs[0].Action != agent.BreakAway || len(recs[0].BlockingPartners) != 5 {
		t.Fatalf("capped rec = %+v", recs[0])
	}
	if g := recs[0].ExpectedGain; g != 0.9-0.1 {
		t.Fatalf("capped rec gain = %v, want 0.8", g)
	}
}
