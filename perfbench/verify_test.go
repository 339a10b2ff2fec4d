package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"ktg"
)

// pathNetwork is 0-1-2-3-4-5 with one keyword per vertex.
func pathNetwork(t *testing.T) *ktg.Network {
	t.Helper()
	b := ktg.NewBuilder(6)
	for v := ktg.Vertex(0); v < 5; v++ {
		b.AddEdge(v, v+1)
	}
	for v, kw := range []string{"a", "b", "c", "a", "b", "c"} {
		b.SetKeywords(ktg.Vertex(v), kw)
	}
	nw, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestRealAnswerPasses(t *testing.T) {
	nw := pathNetwork(t)
	q := ktg.Query{Keywords: []string{"a", "b", "c"}, GroupSize: 2, Tenuity: 1, TopN: 3}
	res, err := nw.Search(q, ktg.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := fromLibrary(res.Groups)
	if len(got) == 0 {
		t.Fatal("search found no group")
	}
	if err := checkGroups(nw, nw.NewBFSIndex(), q, got); err != nil {
		t.Fatalf("a real answer failed verification: %v", err)
	}
	if err := sameAnswers(got, got); err != nil {
		t.Fatal(err)
	}
}

func TestPlantedNonTenuousGroupFails(t *testing.T) {
	nw := pathNetwork(t)
	q := ktg.Query{Keywords: []string{"a", "b"}, GroupSize: 2, Tenuity: 1, TopN: 1}
	// 0 and 1 are neighbours, so no 1-tenuous group holds both.
	planted := []answer{{Members: []int64{0, 1}, Covered: []string{"a", "b"}, QKC: 1}}
	if err := checkGroups(nw, nw.NewBFSIndex(), q, planted); err == nil {
		t.Fatal("a group of neighbours passed as 1-tenuous")
	}
}

func TestOffByOneCoverageFails(t *testing.T) {
	nw := pathNetwork(t)
	q := ktg.Query{Keywords: []string{"a", "b", "c"}, GroupSize: 2, Tenuity: 1, TopN: 1}
	// 0 and 3 are 3 hops apart and both carry only "a".
	honest := answer{Members: []int64{0, 3}, Covered: []string{"a"}, QKC: 1.0 / 3}
	if err := checkGroups(nw, nw.NewBFSIndex(), q, []answer{honest}); err != nil {
		t.Fatalf("honest group failed: %v", err)
	}
	inflated := answer{Members: []int64{0, 3}, Covered: []string{"a", "b"}, QKC: 2.0 / 3}
	if err := checkGroups(nw, nw.NewBFSIndex(), q, []answer{inflated}); err == nil {
		t.Fatal("a group claiming one keyword too many passed")
	}
	if err := sameCoverage([]answer{inflated}, []answer{honest}); err == nil {
		t.Fatal("coverage vectors differing by one keyword compared equal")
	}
}

func TestShardMismatchFails(t *testing.T) {
	single := []answer{{Members: []int64{0, 3}, Covered: []string{"a"}, QKC: 0.5}}
	fleet := []answer{{Members: []int64{0, 4}, Covered: []string{"a"}, QKC: 0.5}}
	if err := sameAnswers(fleet, single); err == nil {
		t.Fatal("a coordinator answer with another member matched the single-node answer")
	}
}

func TestSelfTimeFollowsChildren(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	root := &span{layer: "root", start: at(0), end: at(100)}
	a := root.add("a", at(10), at(60))
	root.add("b", at(40), at(80)) // overlaps a: the union is 10..80
	a.add("c", at(20), at(30))
	acc := map[string]time.Duration{}
	root.addSelf(acc)
	want := map[string]time.Duration{"root": 30 * time.Millisecond, "a": 40 * time.Millisecond,
		"b": 40 * time.Millisecond, "c": 10 * time.Millisecond}
	for k, v := range want {
		if acc[k] != v {
			t.Errorf("self[%s] = %v, want %v", k, acc[k], v)
		}
	}
}

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{40, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {12000, 0.999}} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the reported metrics in step.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not run by the benchmark", w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s], the benchmark reports %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

func TestShareOverlapSumsToUnion(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	coord := &span{layer: "coord", start: at(0), end: at(20)}
	a := coord.add("shard", at(0), at(10))
	b := coord.add("shard", at(5), at(15))
	shareOverlap([]*span{a, b})
	if a.share != 0.75 || b.share != 0.75 {
		t.Fatalf("shares %v, %v; want 0.75 each", a.share, b.share)
	}
	acc := map[string]time.Duration{}
	coord.addSelf(acc)
	if got := acc["coord"] + acc["shard"]; got != coord.dur() {
		t.Fatalf("self times sum to %v, want the parent's %v", got, coord.dur())
	}
}
