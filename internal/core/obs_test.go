package core

import (
	"errors"
	"testing"
	"time"

	"ktg/internal/graph"
	"ktg/internal/index"
	"ktg/internal/keywords"
)

// slowOracle delays every distance check, simulating the bounded-BFS
// cost on a large graph, so wall-clock deadline tests are deterministic.
type slowOracle struct {
	inner index.Oracle
	delay time.Duration
}

func (o *slowOracle) Within(u, v graph.Vertex, k int) bool {
	time.Sleep(o.delay)
	return o.inner.Within(u, v, k)
}

func (o *slowOracle) Name() string { return "slow-" + o.inner.Name() }

// wideFixture builds an edgeless graph where every vertex covers the one
// query keyword: every pair is a valid k-distance group, so the search
// space is huge and k-line filtering performs one oracle call per
// remaining candidate at every node.
func wideFixture(n int) (*graph.Graph, *keywords.Attributes, Query) {
	g := graph.FromEdges(n, nil)
	a := keywords.NewAttributes(n, nil)
	for v := 0; v < n; v++ {
		a.Assign(graph.Vertex(v), "KW")
	}
	id, _ := a.Vocabulary().Lookup("KW")
	return g, a, Query{Keywords: []keywords.ID{id}, P: 3, K: 1, N: 1 << 30}
}

// TestSearchMaxDurationInsideFilterLoop pins the deadline check that
// lives inside the k-line filtering loop. With 600 candidates, the very
// first explore node performs ~600 oracle calls before any second node
// is entered, so the node-entry check (every 128 nodes) cannot fire;
// only the per-oracle-call check (every 256 calls) can stop the search
// anywhere near the budget.
func TestSearchMaxDurationInsideFilterLoop(t *testing.T) {
	g, attrs, q := wideFixture(600)
	slow := &slowOracle{inner: index.NewBFSOracle(g), delay: 50 * time.Microsecond}
	start := time.Now()
	r, err := Search(g, attrs, q, Options{
		Ordering:    OrderVKCDegree,
		Oracle:      slow,
		MaxDuration: time.Millisecond,
	})
	elapsed := time.Since(start)
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	if r == nil {
		t.Fatal("partial result missing")
	}
	// The filter-loop check fires within 256 oracle calls of the
	// deadline (~13ms at 50µs/call). Before that check existed the
	// search would grind through the entire frontier — tens of
	// thousands of calls, i.e. seconds.
	if elapsed > 2*time.Second {
		t.Errorf("search overran a 1ms budget by %v", elapsed)
	}
	if r.Stats.Nodes >= 128 {
		t.Errorf("explored %d nodes; the node-entry check could have fired, test is not isolating the filter-loop check", r.Stats.Nodes)
	}
	if r.Stats.OracleCalls < 256 {
		t.Errorf("only %d oracle calls; filter-loop check cannot have fired", r.Stats.OracleCalls)
	}
}

func TestSearchMaxDurationCompletesFastQueries(t *testing.T) {
	g := fixtureGraph()
	attrs := fixtureAttrs()
	q := Query{Keywords: fixtureQuery(t, attrs), P: 3, K: 1, N: 2}
	r, err := Search(g, attrs, q, Options{Ordering: OrderVKCDegree, MaxDuration: time.Minute})
	if err != nil {
		t.Fatalf("generous deadline aborted the search: %v", err)
	}
	requireValidResult(t, g, attrs, q, r)
}

func TestSearchTimingAndDepthStats(t *testing.T) {
	g := fixtureGraph()
	attrs := fixtureAttrs()
	q := Query{Keywords: fixtureQuery(t, attrs), P: 3, K: 1, N: 2}
	r, err := Search(g, attrs, q, Options{Ordering: OrderVKCDegree})
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.ExploreTime <= 0 {
		t.Errorf("ExploreTime = %v, want > 0", r.Stats.ExploreTime)
	}
	if r.Stats.CompileTime < 0 || r.Stats.CandidateTime < 0 {
		t.Errorf("negative phase timing: %+v", r.Stats)
	}
	sum := func(xs []int64) (t int64) {
		for _, x := range xs {
			t += x
		}
		return
	}
	if len(r.Stats.DepthNodes) != q.P+1 {
		t.Fatalf("DepthNodes has %d entries, want %d", len(r.Stats.DepthNodes), q.P+1)
	}
	if got := sum(r.Stats.DepthNodes); got != r.Stats.Nodes {
		t.Errorf("DepthNodes sums to %d, Stats.Nodes = %d", got, r.Stats.Nodes)
	}
	if got := sum(r.Stats.DepthPruned); got != r.Stats.Pruned {
		t.Errorf("DepthPruned sums to %d, Stats.Pruned = %d", got, r.Stats.Pruned)
	}
	// Filtered also counts candidate-build filtering (query vertices),
	// which this query does not use, so the depth total must match.
	if got := sum(r.Stats.DepthFiltered); got != r.Stats.Filtered {
		t.Errorf("DepthFiltered sums to %d, Stats.Filtered = %d", got, r.Stats.Filtered)
	}
	// Depth 0 is entered exactly once (the root).
	if r.Stats.DepthNodes[0] != 1 {
		t.Errorf("DepthNodes[0] = %d, want 1", r.Stats.DepthNodes[0])
	}
}

func TestGreedyTiming(t *testing.T) {
	g := fixtureGraph()
	attrs := fixtureAttrs()
	q := Query{Keywords: fixtureQuery(t, attrs), P: 3, K: 1, N: 2}
	r, err := Greedy(g, attrs, q, GreedyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.ExploreTime <= 0 {
		t.Errorf("greedy ExploreTime = %v, want > 0", r.Stats.ExploreTime)
	}
}

func TestSearchDiverseAggregatesStats(t *testing.T) {
	g := fixtureGraph()
	attrs := fixtureAttrs()
	q := Query{Keywords: fixtureQuery(t, attrs), P: 3, K: 1, N: 2}
	dr, err := SearchDiverse(g, attrs, q, DiverseOptions{
		Options: Options{Ordering: OrderVKCDegree},
		Gamma:   0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if dr.Stats.Feasible == 0 {
		t.Error("diverse search dropped the Feasible count")
	}
	if dr.Stats.ExploreTime <= 0 {
		t.Errorf("diverse ExploreTime = %v, want > 0 (Stats.Add must merge timings)", dr.Stats.ExploreTime)
	}
	if len(dr.Stats.DepthNodes) == 0 {
		t.Error("diverse search dropped the per-depth histograms")
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{
		Nodes: 1, Pruned: 2, Filtered: 3, OracleCalls: 4, Feasible: 6,
		CompileTime: time.Millisecond, ExploreTime: 2 * time.Millisecond,
		DepthNodes: []int64{1, 2},
	}
	b := Stats{
		Nodes: 10, Feasible: 60,
		ExploreTime: 3 * time.Millisecond,
		DepthNodes:  []int64{5, 5, 5}, // longer than a's — Add must grow
	}
	a.Add(b)
	if a.Nodes != 11 || a.Feasible != 66 || a.Pruned != 2 {
		t.Errorf("counter merge wrong: %+v", a)
	}
	if a.ExploreTime != 5*time.Millisecond || a.CompileTime != time.Millisecond {
		t.Errorf("timing merge wrong: %+v", a)
	}
	want := []int64{6, 7, 5}
	if len(a.DepthNodes) != len(want) {
		t.Fatalf("DepthNodes = %v, want %v", a.DepthNodes, want)
	}
	for i := range want {
		if a.DepthNodes[i] != want[i] {
			t.Fatalf("DepthNodes = %v, want %v", a.DepthNodes, want)
		}
	}
}
