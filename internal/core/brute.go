package core

import (
	"fmt"
	"slices"
	"time"

	"ktg/internal/graph"
	"ktg/internal/index"
	"ktg/internal/keywords"
)

// BruteForce answers a KTG query by enumerating every size-P combination
// of qualified vertices — the O(|V|^p) reference of Section III. It is
// the correctness oracle for the branch-and-bound implementations and is
// only practical on small graphs.
func BruteForce(g graph.Topology, attrs *keywords.Attributes, q Query, opts Options) (*Result, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if attrs.NumVertices() != g.NumVertices() {
		return nil, fmt.Errorf("core: attributes cover %d vertices, graph has %d",
			attrs.NumVertices(), g.NumVertices())
	}
	compileStart := time.Now()
	kq, err := keywords.CompileQuery(attrs, q.Keywords)
	if err != nil {
		return nil, err
	}
	oracle := opts.Oracle
	if oracle == nil {
		oracle = index.NewBFSOracle(g)
	}
	cands := kq.Candidates()
	heap := newTopN(q.N)
	var stats Stats
	stats.CompileTime = time.Since(compileStart)

	group := make([]graph.Vertex, 0, q.P)
	var ctxErr error
	var recurse func(start int)
	recurse = func(start int) {
		stats.Nodes++
		if opts.Context != nil && stats.Nodes&deadlineNodeMask == 0 {
			if err := opts.Context.Err(); err != nil {
				ctxErr = err
				return
			}
		}
		if ctxErr != nil {
			return
		}
		if len(group) == q.P {
			stats.Feasible++
			heap.Offer(group, kq.GroupCoverageCount(group))
			return
		}
		for i := start; i < len(cands); i++ {
			if ctxErr != nil {
				return
			}
			v := cands[i]
			ok := true
			for _, u := range group {
				stats.OracleCalls++
				if oracle.Within(u, v, q.K) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			group = append(group, v)
			recurse(i + 1)
			group = group[:len(group)-1]
		}
	}
	exploreStart := time.Now()
	recurse(0)
	stats.ExploreTime = time.Since(exploreStart)

	groups := heap.Groups()
	// Candidates are scanned in increasing id order, so each group's
	// members are already sorted; normalize anyway for safety.
	for i := range groups {
		slices.Sort(groups[i].Members)
	}
	res := &Result{Groups: groups, QueryWidth: kq.Width(), Stats: stats}
	if ctxErr != nil {
		return res, fmt.Errorf("brute force cancelled after %d nodes: %w", stats.Nodes, ctxErr)
	}
	return res, nil
}
