package server

import (
	"fmt"
	"runtime"
	"testing"

	"ktg"
)

// twoStarNetwork builds two disjoint stars of `leaves` leaves each,
// every vertex holding keyword A. Under tenuity 2 the vertices of one
// star are pairwise too close, so no group of three is feasible and the
// top-N threshold never forms: an exact p=3 query for A pairs each leaf
// of one star with every vertex of the other, explores about leaves²
// nodes with no bound pruning, and always hits a node budget below that.
// Each node is cheap: its child's candidate set is empty.
func twoStarNetwork(t *testing.T, leaves int) *ktg.Network {
	t.Helper()
	b := ktg.NewBuilder(2 * (leaves + 1))
	for star := 0; star < 2; star++ {
		center := ktg.Vertex(star * (leaves + 1))
		b.SetKeywords(center, "A")
		for i := 1; i <= leaves; i++ {
			b.AddEdge(center, center+ktg.Vertex(i))
			b.SetKeywords(center+ktg.Vertex(i), "A")
		}
	}
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestQueryMemoryBoundedByConfig pins that a /v1/query request's memory
// is set by its configuration (dataset size, group size, top_n), not by
// how many nodes the search happened to explore: raising max_nodes 100×
// on a search that always exhausts its budget may at most double the
// bytes the request allocates.
func TestQueryMemoryBoundedByConfig(t *testing.T) {
	net := twoStarNetwork(t, 600)
	idx, err := net.BuildNLRNL()
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{}, &Dataset{Name: "stars", Network: net, Index: idx})
	h := s.Handler()

	// allocated runs one budget-bound query and returns the bytes it
	// allocated. Budget-partial answers are never cached, so repeats
	// search again.
	allocated := func(maxNodes int) uint64 {
		body := fmt.Sprintf(`{"dataset":"stars","keywords":["A"],"group_size":3,"tenuity":2,"top_n":1,"max_nodes":%d}`, maxNodes)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rec, out := postJSON(t, h, "/v1/query", body)
		runtime.ReadMemStats(&after)
		if rec.Code != 200 || out["partial_reason"] != "budget" {
			t.Fatalf("max_nodes=%d: status %d partial_reason %v, want a budget partial", maxNodes, rec.Code, out["partial_reason"])
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	allocated(2_000) // warm lazily built server and metric state
	small, large := allocated(2_000), allocated(200_000)
	t.Logf("allocated: %d B at max_nodes=2000, %d B at max_nodes=200000", small, large)
	if large > 2*small {
		t.Fatalf("max_nodes=200000 allocated %d B, more than 2x the %d B at max_nodes=2000", large, small)
	}
}
