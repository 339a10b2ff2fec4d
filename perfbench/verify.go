package main

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"

	"ktg"
	"ktg/internal/client"
)

// answer is one result group in a form every path (library, server,
// coordinator) converts to, so answers compare byte for byte.
type answer struct {
	Members []int64  `json:"m"`
	Covered []string `json:"c"`
	QKC     float64  `json:"q"`
}

// work is the exact effort counters of one search.
type work struct {
	Nodes    int64 `json:"n"`
	Pruned   int64 `json:"p"`
	Filtered int64 `json:"f"`
	Checks   int64 `json:"d"`
	Feasible int64 `json:"e"`
}

func workOf(s ktg.SearchStats) work {
	return work{Nodes: s.Nodes, Pruned: s.Pruned, Filtered: s.Filtered, Checks: s.DistanceChecks, Feasible: s.Feasible}
}

func (w *work) add(o work) {
	w.Nodes += o.Nodes
	w.Pruned += o.Pruned
	w.Filtered += o.Filtered
	w.Checks += o.Checks
	w.Feasible += o.Feasible
}

func fromLibrary(gs []ktg.Group) []answer {
	out := make([]answer, len(gs))
	for i, g := range gs {
		out[i] = toAnswer(g.Members, g.Covered, g.QKC)
	}
	return out
}

func fromClient(gs []client.Group) []answer {
	out := make([]answer, len(gs))
	for i, g := range gs {
		out[i] = toAnswer(g.Members, g.Covered, g.QKC)
	}
	return out
}

func toAnswer[V ktg.Vertex | int](members []V, covered []string, qkc float64) answer {
	m := make([]int64, len(members))
	for j, v := range members {
		m[j] = int64(v)
	}
	return answer{Members: m, Covered: nonNil(covered), QKC: qkc}
}

func nonNil(s []string) []string {
	if s == nil {
		return []string{}
	}
	return s
}

// sameAnswers requires got to encode to exactly the bytes of want.
func sameAnswers(got, want []answer) error {
	g, err := json.Marshal(got)
	if err != nil {
		return err
	}
	w, err := json.Marshal(want)
	if err != nil {
		return err
	}
	if string(g) != string(w) {
		return fmt.Errorf("answers differ:\n  got  %s\n  want %s", g, w)
	}
	return nil
}

// sameCoverage requires the two answers to have the same coverage
// vector: the number of covered keywords of each group, in rank order.
// Two exact searches may break ties between equally covering groups
// differently only if the tie-break differs, so the vector must match
// even where the members may not.
func sameCoverage(got, want []answer) error {
	if len(got) != len(want) {
		return fmt.Errorf("coverage vector has %d groups, want %d", len(got), len(want))
	}
	for i := range got {
		if len(got[i].Covered) != len(want[i].Covered) {
			return fmt.Errorf("group %d covers %d keywords, want %d", i, len(got[i].Covered), len(want[i].Covered))
		}
	}
	return nil
}

// checkGroups verifies each group on its own against the network: it
// has exactly p distinct members, no two of them are within k hops
// (audited with the index-free BFS oracle), and its claimed coverage is
// exactly the query keywords its members carry.
func checkGroups(nw *ktg.Network, bfs ktg.DistanceIndex, q ktg.Query, gs []answer) error {
	for i, g := range gs {
		if len(g.Members) != q.GroupSize {
			return fmt.Errorf("group %d has %d members, want %d", i, len(g.Members), q.GroupSize)
		}
		members := make([]ktg.Vertex, len(g.Members))
		for j, m := range g.Members {
			if m < 0 || m >= int64(nw.NumVertices()) {
				return fmt.Errorf("group %d member %d is not a vertex", i, m)
			}
			members[j] = ktg.Vertex(m)
		}
		sorted := slices.Clone(members)
		slices.Sort(sorted)
		if len(slices.Compact(sorted)) != len(members) {
			return fmt.Errorf("group %d repeats a member: %v", i, g.Members)
		}
		if a := nw.AuditTenuity(members, q.Tenuity, q.Tenuity, bfs); a.KLines != 0 {
			return fmt.Errorf("group %d %v is not %d-tenuous: %d pairs within %d hops", i, g.Members, q.Tenuity, a.KLines, q.Tenuity)
		}
		covered := nonNil(nw.CoveredKeywords(q, members))
		if !slices.Equal(covered, g.Covered) {
			return fmt.Errorf("group %d %v claims coverage %v, members cover %v", i, g.Members, g.Covered, covered)
		}
		if want := float64(len(covered)) / float64(len(q.Keywords)); math.Abs(g.QKC-want) > 1e-12 {
			return fmt.Errorf("group %d has QKC %v, want %v", i, g.QKC, want)
		}
	}
	return nil
}
