package agent

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"cooper/internal/arch"
	"cooper/internal/matching"
	"cooper/internal/policy"
	"cooper/internal/profiler"
	"cooper/internal/stats"
	"cooper/internal/workload"
)

func buildAgents(d [][]float64) []*Agent {
	agents := make([]*Agent, len(d))
	for i := range d {
		agents[i] = New(i, "job", d[i])
	}
	return agents
}

func TestPreferenceList(t *testing.T) {
	a := New(1, "x", []float64{0.3, 0, 0.1, 0.3})
	got := a.PreferenceList()
	want := []int{2, 0, 3} // 0.1 first; tie between 0 and 3 breaks by index
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PreferenceList = %v, want %v", got, want)
		}
	}
}

func TestExchangeFindsBlockingPair(t *testing.T) {
	// Figure 2's scenario: optimal matching {AD, BC} leaves A and B
	// mutually preferring each other.
	d := [][]float64{
		//       A     B     C     D
		/*A*/ {0.00, 0.02, 0.10, 0.15},
		/*B*/ {0.03, 0.00, 0.12, 0.20},
		/*C*/ {0.08, 0.09, 0.00, 0.11},
		/*D*/ {0.05, 0.07, 0.06, 0.00},
	}
	match := matching.Matching{3, 2, 1, 0} // {AD, BC}
	recs, err := Exchange(buildAgents(d), match, 0)
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].Action != BreakAway || recs[1].Action != BreakAway {
		t.Errorf("A and B should recommend break-away: %+v %+v", recs[0], recs[1])
	}
	if len(recs[0].BlockingPartners) == 0 || recs[0].BlockingPartners[0] != 1 {
		t.Errorf("A's best blocking partner should be B: %v", recs[0].BlockingPartners)
	}
	if gain := recs[0].ExpectedGain; gain != 0.15-0.02 {
		t.Errorf("A's expected gain = %v, want 0.13", gain)
	}
	pairs := BlockingPairsFromRecommendations(recs)
	found := false
	for _, p := range pairs {
		if p == [2]int{0, 1} {
			found = true
		}
	}
	if !found {
		t.Errorf("blocking pairs %v should include {0,1}", pairs)
	}
}

func TestExchangeStableMatchingParticipates(t *testing.T) {
	d := [][]float64{
		{0.00, 0.02, 0.10, 0.15},
		{0.03, 0.00, 0.12, 0.20},
		{0.08, 0.09, 0.00, 0.11},
		{0.05, 0.07, 0.06, 0.00},
	}
	match := matching.Matching{1, 0, 3, 2} // {AB, CD}: stable here
	recs, err := Exchange(buildAgents(d), match, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Action != Participate {
			t.Errorf("agent %d should participate: %+v", r.AgentID, r)
		}
		if r.ExpectedGain != 0 {
			t.Errorf("participating agent %d has gain %v", r.AgentID, r.ExpectedGain)
		}
	}
}

func TestExchangeAgreesWithAlphaBlockingPairs(t *testing.T) {
	// The distributed protocol must discover exactly the pairs the
	// centralized analysis finds.
	r := rand.New(rand.NewSource(61))
	for trial := 0; trial < 20; trial++ {
		n := 2 * (2 + r.Intn(10))
		d := make([][]float64, n)
		for i := range d {
			d[i] = make([]float64, n)
			for j := range d[i] {
				if i != j {
					d[i][j] = r.Float64()
				}
			}
		}
		match := make(matching.Matching, n)
		perm := r.Perm(n)
		for k := 0; k < n; k += 2 {
			match[perm[k]], match[perm[k+1]] = perm[k+1], perm[k]
		}
		for _, alpha := range []float64{0, 0.02, 0.1} {
			recs, err := Exchange(buildAgents(d), match, alpha)
			if err != nil {
				t.Fatal(err)
			}
			got := BlockingPairsFromRecommendations(recs)
			want := matching.AlphaBlockingPairs(match, d, alpha)
			if len(got) != len(want) {
				t.Fatalf("trial %d alpha %v: exchange found %d pairs, analysis %d",
					trial, alpha, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d: pair mismatch %v vs %v", trial, got[i], want[i])
				}
			}
		}
	}
}

func TestExchangeAlphaSuppressesSmallGains(t *testing.T) {
	d := [][]float64{
		{0.00, 0.09, 0.10},
		{0.09, 0.00, 0.10},
		{0.10, 0.10, 0.00},
	}
	match := matching.Matching{2, matching.Unmatched, 0}
	// A prefers B by 0.01; with alpha 0.05 the improvement is too small.
	recs, err := Exchange(buildAgents(d), match, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Action != Participate {
			t.Errorf("alpha should suppress marginal gains: %+v", r)
		}
	}
}

func TestExchangeUnmatchedAgentsNeverBreakAway(t *testing.T) {
	d := [][]float64{
		{0, 0.5},
		{0.5, 0},
	}
	match := matching.Matching{matching.Unmatched, matching.Unmatched}
	recs, err := Exchange(buildAgents(d), match, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Action != Participate {
			t.Errorf("solo agent should participate: %+v", r)
		}
	}
}

func TestExchangeValidation(t *testing.T) {
	d := [][]float64{{0, 0.1}, {0.1, 0}}
	agents := buildAgents(d)
	if _, err := Exchange(agents, matching.Matching{1}, 0); err == nil {
		t.Error("size mismatch accepted")
	}
	agents[1].ID = 5
	if _, err := Exchange(agents, matching.Matching{1, 0}, 0); err == nil {
		t.Error("misnumbered agent accepted")
	}
	agents[1].ID = 1
	agents[1].Penalties = []float64{0.1}
	if _, err := Exchange(agents, matching.Matching{1, 0}, 0); err == nil {
		t.Error("short penalty row accepted")
	}
}

func TestActionString(t *testing.T) {
	if Participate.String() != "participate" || BreakAway.String() != "break-away" {
		t.Error("action names wrong")
	}
	if Action(9).String() == "" {
		t.Error("unknown action should still format")
	}
}

// exchangeReference runs the message-exchange protocol literally: one
// goroutine per agent messages every agent it prefers over its co-runner
// through per-agent channels, then each agent crosses its inbox with its
// own preferences.
func exchangeReference(agents []*Agent, match matching.Matching, alpha float64) []Recommendation {
	n := len(agents)
	preferredOver := func(a *Agent) []int {
		current := 0.0
		if match[a.ID] != matching.Unmatched {
			current = a.Penalties[match[a.ID]]
		}
		var better []int
		for j := range a.Penalties {
			if j != a.ID && j != match[a.ID] && current-a.Penalties[j] > alpha {
				better = append(better, j)
			}
		}
		return better
	}
	inbox := make([]chan int, n)
	for i := range inbox {
		inbox[i] = make(chan int, n)
	}
	var wg sync.WaitGroup
	for _, a := range agents {
		wg.Add(1)
		go func(a *Agent) {
			defer wg.Done()
			for _, j := range preferredOver(a) {
				inbox[j] <- a.ID
			}
		}(a)
	}
	wg.Wait()
	for _, ch := range inbox {
		close(ch)
	}
	recs := make([]Recommendation, n)
	for _, a := range agents {
		wg.Add(1)
		go func(a *Agent) {
			defer wg.Done()
			prefer := make(map[int]bool)
			for _, j := range preferredOver(a) {
				prefer[j] = true
			}
			var blocking []int
			for sender := range inbox[a.ID] {
				if prefer[sender] {
					blocking = append(blocking, sender)
				}
			}
			sort.Slice(blocking, func(x, y int) bool {
				px, py := a.Penalties[blocking[x]], a.Penalties[blocking[y]]
				if px != py {
					return px < py
				}
				return blocking[x] < blocking[y]
			})
			rec := Recommendation{AgentID: a.ID, Action: Participate}
			if len(blocking) > 0 {
				current := 0.0
				if match[a.ID] != matching.Unmatched {
					current = a.Penalties[match[a.ID]]
				}
				rec.Action = BreakAway
				rec.BlockingPartners = blocking
				rec.ExpectedGain = current - a.Penalties[blocking[0]]
			}
			recs[a.ID] = rec
		}(a)
	}
	wg.Wait()
	return recs
}

func TestExchangeMatchesMessageProtocol(t *testing.T) {
	// Heavy ties (penalties drawn from five levels, signed zeros among
	// them), odd populations, and a share of agents left unmatched.
	levels := []float64{0, math.Copysign(0, -1), 0.05, 0.1, 0.3}
	r := rand.New(rand.NewSource(71))
	for trial := 0; trial < 40; trial++ {
		n := 3 + r.Intn(40)
		d := make([][]float64, n)
		for i := range d {
			d[i] = make([]float64, n)
			for j := range d[i] {
				if i != j {
					d[i][j] = levels[r.Intn(len(levels))]
				}
			}
		}
		match := make(matching.Matching, n)
		for i := range match {
			match[i] = matching.Unmatched
		}
		perm := r.Perm(n)
		for k := 0; k+1 < n; k += 2 {
			if r.Intn(4) > 0 {
				match[perm[k]], match[perm[k+1]] = perm[k+1], perm[k]
			}
		}
		for _, alpha := range []float64{0, 0.05} {
			got, err := Exchange(buildAgents(d), match, alpha)
			if err != nil {
				t.Fatal(err)
			}
			want := exchangeReference(buildAgents(d), match, alpha)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d (n=%d) alpha %v: one-pass exchange diverges from the protocol\n got: %+v\nwant: %+v",
					trial, n, alpha, got, want)
			}
		}
	}
}

// BenchmarkExchange times the exchange over a 2000-agent population with
// job-structured predicted rows (every agent running a job shares that
// job's row, as ExpandToAgents builds them) and the SMR matching the
// epoch pipeline would assess.
func BenchmarkExchange(b *testing.B) {
	cmp := arch.DefaultCMP()
	catalog, err := workload.Catalog(cmp)
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	pop := workload.Sample(2000, catalog, stats.Uniform{}, r)
	d, err := profiler.ExpandToAgents(profiler.DensePenalties(cmp, catalog), catalog, pop)
	if err != nil {
		b.Fatal(err)
	}
	match, err := policy.StableMarriageRandom{}.Assign(d, policy.Context{Rand: r})
	if err != nil {
		b.Fatal(err)
	}
	agents := make([]*Agent, len(d))
	for i := range agents {
		agents[i] = New(i, pop.Jobs[i].Name, d[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		if _, err := Exchange(agents, match, 0); err != nil {
			b.Fatal(err)
		}
	}
}
