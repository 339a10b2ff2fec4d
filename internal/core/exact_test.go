package core

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"ktg/internal/graph"
	"ktg/internal/index"
	"ktg/internal/keywords"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/search_counters.json from the current search")

const goldenPath = "testdata/search_counters.json"

// exactInstance is one seeded random attributed graph of the exactness
// table. bruteMaxP bounds the group sizes checked against BruteForce,
// which is exponential in p.
type exactInstance struct {
	name      string
	g         *graph.Graph
	attrs     *keywords.Attributes
	kw        []keywords.ID
	qv        []graph.Vertex
	uncapped  bool
	bruteMaxP int
}

// exactInstances builds the table's graphs. The small ones fit the
// candidate frontier in one bitset word; the larger ones span two or
// three, so word boundaries and multi-word rows are exercised. A small
// vocabulary and few keywords per vertex give many equal VKC keys and
// degrees, so tie-breaking decides most orders.
func exactInstances() []exactInstance {
	specs := []struct {
		n         int
		avgDeg    float64
		vocab     int
		qvs       int
		uncapped  bool
		bruteMaxP int
	}{
		{24, 3, 5, 0, true, 5},
		{24, 6, 6, 1, false, 5},
		{40, 4, 6, 0, true, 4},
		{90, 4, 6, 1, true, 3},
		{160, 3, 7, 0, false, 3},
		{160, 6, 7, 2, false, 3},
	}
	var out []exactInstance
	for i, sp := range specs {
		r := rand.New(rand.NewSource(int64(7919 * (i + 1))))
		b := graph.NewBuilder(sp.n)
		for u := 0; u < sp.n; u++ {
			for v := u + 1; v < sp.n; v++ {
				if r.Float64() < sp.avgDeg/float64(sp.n-1) {
					b.AddEdge(graph.Vertex(u), graph.Vertex(v))
				}
			}
		}
		attrs := keywords.NewAttributes(sp.n, nil)
		for v := 0; v < sp.n; v++ {
			ids := make([]keywords.ID, r.Intn(4))
			for j := range ids {
				ids[j] = keywords.ID(r.Intn(sp.vocab))
			}
			attrs.AssignIDs(graph.Vertex(v), ids...)
		}
		kw := make([]keywords.ID, 3+r.Intn(3))
		for j := range kw {
			kw[j] = keywords.ID(r.Intn(sp.vocab))
		}
		var qv []graph.Vertex
		for j := 0; j < sp.qvs; j++ {
			qv = append(qv, graph.Vertex(r.Intn(sp.n)))
		}
		out = append(out, exactInstance{
			name:      fmt.Sprintf("n%d-d%g-%d", sp.n, sp.avgDeg, i),
			g:         b.Build(),
			attrs:     attrs,
			kw:        kw,
			qv:        qv,
			uncapped:  sp.uncapped,
			bruteMaxP: sp.bruteMaxP,
		})
	}
	return out
}

// bruteAttrs returns the instance's attributes with every vertex within
// k hops of a query vertex stripped of its keywords: BruteForce knows no
// query vertices, and a vertex covering nothing is never a candidate.
func (inst exactInstance) bruteAttrs(k int) *keywords.Attributes {
	if len(inst.qv) == 0 {
		return inst.attrs
	}
	n := inst.g.NumVertices()
	out := keywords.NewAttributes(n, inst.attrs.Vocabulary())
	tr := graph.NewTraverser(n)
	for v := 0; v < n; v++ {
		near := false
		for _, q := range inst.qv {
			near = near || tr.Within(inst.g, q, graph.Vertex(v), k)
		}
		if !near {
			out.AssignIDs(graph.Vertex(v), inst.attrs.Keywords(graph.Vertex(v))...)
		}
	}
	return out
}

// exactOracles returns every exact distance oracle over g.
func exactOracles(t *testing.T, g *graph.Graph) []index.Oracle {
	t.Helper()
	nl, err := index.BuildNL(g, index.NLOptions{H: 2})
	if err != nil {
		t.Fatal(err)
	}
	nlrnl, err := index.BuildNLRNL(g)
	if err != nil {
		t.Fatal(err)
	}
	pll, err := index.BuildPLL(g)
	if err != nil {
		t.Fatal(err)
	}
	return []index.Oracle{index.NewBFSOracle(g), nl, nlrnl, pll}
}

// searchCounters is the oracle-independent outcome of one search: the
// answer and every work counter except OracleCalls, which depends on
// how the k-line filter consults the oracle, not on what it decides.
type searchCounters struct {
	Groups        []string `json:"groups"`
	Nodes         int64    `json:"nodes"`
	Pruned        int64    `json:"pruned"`
	Filtered      int64    `json:"filtered"`
	Feasible      int64    `json:"feasible"`
	DepthNodes    []int64  `json:"depth_nodes"`
	DepthPruned   []int64  `json:"depth_pruned"`
	DepthFiltered []int64  `json:"depth_filtered"`
}

func countersOf(r *Result) searchCounters {
	c := searchCounters{
		Nodes:         r.Stats.Nodes,
		Pruned:        r.Stats.Pruned,
		Filtered:      r.Stats.Filtered,
		Feasible:      r.Stats.Feasible,
		DepthNodes:    r.Stats.DepthNodes,
		DepthPruned:   r.Stats.DepthPruned,
		DepthFiltered: r.Stats.DepthFiltered,
	}
	for _, grp := range r.Groups {
		c.Groups = append(c.Groups, fmt.Sprintf("%v:%d", grp.Members, grp.Coverage))
	}
	return c
}

// exactCase is one row of the table: an instance, an ordering and the
// query's p and K.
type exactCase struct {
	inst exactInstance
	ord  Ordering
	q    Query
}

func (c exactCase) key() string {
	return fmt.Sprintf("%s/%s/p=%d/k=%d", c.inst.name, c.ord, c.q.P, c.q.K)
}

func (c exactCase) opts(o index.Oracle) Options {
	return Options{
		Ordering:           c.ord,
		Oracle:             o,
		UncappedPruneBound: c.inst.uncapped,
		QueryVertices:      c.inst.qv,
	}
}

// forEachExactCase runs fn over instances × QKC/VKC/VKC-DEG × p 2..5 ×
// K 1..3, passing the instance's exact oracles.
func forEachExactCase(t *testing.T, fn func(t *testing.T, c exactCase, oracles []index.Oracle)) {
	for _, inst := range exactInstances() {
		oracles := exactOracles(t, inst.g)
		for _, ord := range []Ordering{OrderQKC, OrderVKC, OrderVKCDegree} {
			for p := 2; p <= 5; p++ {
				for k := 1; k <= 3; k++ {
					c := exactCase{inst: inst, ord: ord, q: Query{Keywords: inst.kw, P: p, K: k, N: 4}}
					fn(t, c, oracles)
				}
			}
		}
	}
}

// TestSearchExactAndGoldenCounters is the exactness table: under every
// ordering and oracle, Search returns BruteForce's coverage profile,
// and its groups (tie-break included) and its node, prune, filter and
// feasible counters — per depth too — equal the golden file. The golden
// counters pin the search's work: a change to candidate ordering, the
// bound or the k-line filter that is meant to be exact must leave them
// alone. Regenerate with `go test ./internal/core -run
// TestSearchExactAndGoldenCounters -update` only for a deliberate
// semantic change.
func TestSearchExactAndGoldenCounters(t *testing.T) {
	golden := map[string]searchCounters{}
	if !*updateGolden {
		raw, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &golden); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]searchCounters{}
	brute := map[string]*Result{}
	forEachExactCase(t, func(t *testing.T, c exactCase, oracles []index.Oracle) {
		key := c.key()
		bkey := fmt.Sprintf("%s/p=%d/k=%d", c.inst.name, c.q.P, c.q.K)
		want, checkBrute := brute[bkey]
		if !checkBrute && c.q.P <= c.inst.bruteMaxP {
			var err error
			want, err = BruteForce(c.inst.g, c.inst.bruteAttrs(c.q.K), c.q, Options{})
			if err != nil {
				t.Fatal(err)
			}
			brute[bkey], checkBrute = want, true
		}
		for _, o := range oracles {
			res, err := Search(c.inst.g, c.inst.attrs, c.q, c.opts(o))
			if err != nil {
				t.Fatalf("%s %s: %v", key, o.Name(), err)
			}
			if checkBrute {
				requireSameCoverages(t, want, res)
			}
			if !validGroups(c.inst.g, c.inst.attrs, c.q, res) {
				t.Fatalf("%s %s: infeasible group in %+v", key, o.Name(), res.Groups)
			}
			cnt := countersOf(res)
			if prev, ok := got[key]; ok {
				if !reflect.DeepEqual(prev, cnt) {
					t.Fatalf("%s: oracle %s changed the search:\n%+v\nvs\n%+v", key, o.Name(), cnt, prev)
				}
				continue
			}
			got[key] = cnt
			if *updateGolden {
				continue
			}
			g, ok := golden[key]
			if !ok {
				t.Fatalf("%s: missing from %s", key, goldenPath)
			}
			if !reflect.DeepEqual(g, cnt) {
				t.Errorf("%s: counters drifted from %s\nwant %+v\ngot  %+v", key, goldenPath, g, cnt)
			}
		}
	})
	if *updateGolden {
		writeGolden(t, got)
		return
	}
	if len(got) != len(golden) {
		var stale []string
		for k := range golden {
			if _, ok := got[k]; !ok {
				stale = append(stale, k)
			}
		}
		t.Errorf("%s holds %d rows the table no longer produces: %s", goldenPath, len(stale), strings.Join(stale, ", "))
	}
}

// writeGolden writes the counters as a JSON object with one row per
// line, in key order, so a re-baseline diffs row by row.
func writeGolden(t *testing.T, rows map[string]searchCounters) {
	t.Helper()
	var b strings.Builder
	b.WriteString("{\n")
	keys := make([]string, 0, len(rows))
	for key := range rows {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	for i, key := range keys {
		k, _ := json.Marshal(key)
		v, err := json.Marshal(rows[key])
		if err != nil {
			t.Fatal(err)
		}
		sep := ",\n"
		if i == len(rows)-1 {
			sep = "\n"
		}
		fmt.Fprintf(&b, "%s: %s%s", k, v, sep)
	}
	b.WriteString("}\n")
	if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestMergePartialsExactOnTable checks, over the exactness table, that
// SearchPartial + MergePartials for every partition of 1..4 slices is
// byte-identical to Search.
func TestMergePartialsExactOnTable(t *testing.T) {
	forEachExactCase(t, func(t *testing.T, c exactCase, oracles []index.Oracle) {
		opts := c.opts(nil)
		want, err := Search(c.inst.g, c.inst.attrs, c.q, opts)
		if err != nil {
			t.Fatal(err)
		}
		for count := 1; count <= 4; count++ {
			parts := searchPartitioned(t, c.inst.g, c.inst.attrs, c.q, opts, count)
			got, exact, err := MergePartials(c.q.N, parts)
			if err != nil {
				t.Fatal(err)
			}
			if !exact {
				t.Fatalf("%s: %d-way merge not exact", c.key(), count)
			}
			requireIdentical(t, want, got, fmt.Sprintf("%s %d-way", c.key(), count))
		}
	})
}
