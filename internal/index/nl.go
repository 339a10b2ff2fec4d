package index

import (
	"fmt"
	"log/slog"
	"slices"
	"sync"
	"time"

	"ktg/internal/graph"
	"ktg/internal/obs"
)

// NL is the h-hop neighbors list index of Section V-A. For every vertex
// it stores the complete sets of 1-hop, 2-hop, ..., h-hop neighbors (both
// directions — unlike NLRNL, NL does not use the id-ordering trick, which
// is why the paper measures it as the larger index). Queries with k <= h
// are resolved by list lookups; queries with k > h resume a breadth-first
// expansion from the stored h-hop frontier exactly as in Algorithm 2.
//
// The stored lists are immutable after the build, and the on-demand
// frontier expansion draws its traversal scratch from an internal pool,
// so a single NL instance is safe for concurrent use by any number of
// goroutines (the query server shares one per dataset).
type NL struct {
	g      graph.Topology
	h      int
	levels [][][]graph.Vertex // levels[v][d-1]: sorted vertices at distance d

	// scratch pools per-expansion traversal state (one *nlScratch per
	// in-flight expansion beyond h), keeping Within allocation-free on
	// the steady state while staying goroutine-safe.
	scratch sync.Pool
}

// nlScratch is the traversal state of one expansion beyond h.
type nlScratch struct {
	stamp    []uint32
	stampGen uint32
	frontier []graph.Vertex
	next     []graph.Vertex
}

// initScratch installs the pool constructor for an n-vertex index.
func (nl *NL) initScratch(n int) {
	nl.scratch.New = func() any { return &nlScratch{stamp: make([]uint32, n)} }
}

// NLOptions configures BuildNL.
type NLOptions struct {
	// H fixes the number of stored hop levels. H = 0 selects the hop
	// level with the largest population (the paper's rule: the most
	// populated m-hop neighborhood), estimated from a BFS sample.
	H int
	// HistogramSample is the number of BFS sources used when H = 0
	// (default 64).
	HistogramSample int
	// Logger receives a structured build record (nil = obs default).
	Logger *slog.Logger
}

// BuildNL constructs the NL index for g.
func BuildNL(g graph.Topology, opts NLOptions) (*NL, error) {
	n := g.NumVertices()
	h := opts.H
	if h < 0 {
		return nil, fmt.Errorf("index: NL h must be non-negative, got %d", h)
	}
	start := time.Now()
	if h == 0 {
		sample := opts.HistogramSample
		if sample <= 0 {
			sample = 64
		}
		h = peakLevel(graph.HopHistogram(g, sample))
	}
	nl := &NL{
		g:      g,
		h:      h,
		levels: make([][][]graph.Vertex, n),
	}
	nl.initScratch(n)
	tr := graph.NewTraverser(n)
	for v := 0; v < n; v++ {
		levels := tr.Levels(g, graph.Vertex(v), h)
		for d := range levels {
			slices.Sort(levels[d])
		}
		nl.levels[v] = levels
	}
	elapsed := time.Since(start)
	obs.Or(opts.Logger).Debug("ktg: NL index built",
		"vertices", n, "h", h, "entries", nl.Entries(), "dur", elapsed)
	mIndexBuilds.Inc()
	mIndexBuildNanos.Observe(elapsed.Nanoseconds())
	return nl, nil
}

// peakLevel returns the 1-based hop level with the largest sampled
// population (at least 1).
func peakLevel(hist []int64) int {
	best, bestCount := 1, int64(-1)
	for d := 1; d < len(hist); d++ {
		if hist[d] > bestCount {
			best, bestCount = d, hist[d]
		}
	}
	return best
}

// H returns the number of stored hop levels.
func (nl *NL) H() int { return nl.h }

// Name returns "NL".
func (nl *NL) Name() string { return "NL" }

// Within reports whether dist(u, v) <= k, following Algorithm 2: consult
// the stored lists up to min(k, h) and, if k exceeds h, expand the h-hop
// frontier one level at a time up to k.
func (nl *NL) Within(u, v graph.Vertex, k int) bool {
	if u == v {
		return k >= 0
	}
	if k <= 0 {
		return false
	}
	lists := nl.levels[u]
	limit := k
	if limit > nl.h {
		limit = nl.h
	}
	for d := 0; d < limit && d < len(lists); d++ {
		if _, ok := slices.BinarySearch(lists[d], v); ok {
			return true
		}
	}
	if k <= nl.h {
		return false
	}
	return nl.expandSearch(u, v, k)
}

// expandSearch resumes BFS from u's stored h-hop frontier, looking for v
// at distances h+1..k. The traversal state comes from the scratch pool,
// so concurrent expansions never share mutable memory.
func (nl *NL) expandSearch(u, v graph.Vertex, k int) bool {
	s := nl.scratch.Get().(*nlScratch)
	defer nl.scratch.Put(s)
	s.stampGen++
	gen := s.stampGen
	if gen == 0 {
		// Generation counter wrapped: stale stamps could alias. Clear
		// and restart (once every 2^32 expansions per scratch).
		clear(s.stamp)
		s.stampGen = 1
		gen = 1
	}
	s.stamp[u] = gen
	s.frontier = s.frontier[:0]
	lists := nl.levels[u]
	for d := 0; d < len(lists); d++ {
		for _, w := range lists[d] {
			s.stamp[w] = gen
		}
	}
	// Levels always materializes exactly h level slices per vertex.
	s.frontier = append(s.frontier, lists[nl.h-1]...)
	for d := nl.h + 1; d <= k; d++ {
		s.next = s.next[:0]
		for _, w := range s.frontier {
			for _, nb := range nl.g.Neighbors(w) {
				if s.stamp[nb] == gen {
					continue
				}
				s.stamp[nb] = gen
				if nb == v {
					return true
				}
				s.next = append(s.next, nb)
			}
		}
		s.frontier, s.next = s.next, s.frontier
		if len(s.frontier) == 0 {
			return false
		}
	}
	return false
}

// SpaceBytes estimates the resident size of the stored lists (entries
// plus slice headers), the quantity plotted in Figure 9(a).
func (nl *NL) SpaceBytes() int64 {
	const (
		entryBytes  = 4
		sliceHeader = 24
	)
	var total int64
	for _, lists := range nl.levels {
		total += sliceHeader
		for _, l := range lists {
			total += sliceHeader + int64(len(l))*entryBytes
		}
	}
	return total
}

// Entries returns the total number of stored (vertex, neighbor) pairs.
func (nl *NL) Entries() int64 {
	var total int64
	for _, lists := range nl.levels {
		for _, l := range lists {
			total += int64(len(l))
		}
	}
	return total
}
