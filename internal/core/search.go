package core

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"time"

	"ktg/internal/bitset"
	"ktg/internal/graph"
	"ktg/internal/index"
	"ktg/internal/keywords"
	"ktg/internal/obs"
)

// deadlineCheckMask throttles wall-clock deadline and context checks:
// both are consulted once every 128 node entries and once every 256
// oracle calls inside the conflict-row fill, so even a single deep or
// filter-heavy subtree cannot overrun MaxDuration (or survive a
// cancellation) by more than a few hundred distance checks.
const (
	deadlineNodeMask   = 127
	deadlineOracleMask = 255
)

// conflictRowBytes caps the memory one search spends on memoised
// conflict rows. Past it, members get a reusable spare row: still
// exact, just recomputed on every visit. It is a variable only so tests
// can drive the over-cap path.
var conflictRowBytes = 4 << 20

// Search answers a KTG query exactly with the paper's branch-and-bound:
// candidates are ranked by the configured Ordering, subtrees that cannot
// beat the current N-th best coverage are cut by keyword pruning
// (Theorem 2), and candidates within distance K of a chosen member are
// removed by k-line filtering (Theorem 3).
//
// The returned groups are k-distance groups of size P whose members each
// cover at least one query keyword, ranked by descending joint coverage.
// If fewer than N feasible groups exist, all of them are returned.
func Search(g graph.Topology, attrs *keywords.Attributes, q Query, opts Options) (*Result, error) {
	s, err := run(g, attrs, q, opts, nil)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Groups:     s.heap.Groups(),
		QueryWidth: s.kq.Width(),
		Stats:      s.stats,
	}
	return res, s.finishErr()
}

// run performs the shared branch-and-bound machinery behind Search and
// SearchPartial: validation, query compilation, frontier construction,
// and exploration. A nil slice explores the whole frontier; a non-nil
// slice restricts depth-0 roots to the assigned stride and records the
// accepted-offer stream for MergePartials.
func run(g graph.Topology, attrs *keywords.Attributes, q Query, opts Options, slice *CandidateSlice) (*searcher, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if attrs.NumVertices() != g.NumVertices() {
		return nil, fmt.Errorf("core: attributes cover %d vertices, graph has %d",
			attrs.NumVertices(), g.NumVertices())
	}
	// OrCtx stamps the context's request ID onto the fallback logger so
	// core-level lines correlate with the serving request even when the
	// caller injected no request-scoped logger.
	logger := obs.OrCtx(opts.Context, opts.Logger)
	logger.Debug("ktg: search start",
		"keywords", len(q.Keywords), "p", q.P, "k", q.K, "n", q.N,
		"ordering", opts.Ordering.String())
	compileStart := time.Now()
	kq, err := keywords.CompileQuery(attrs, q.Keywords)
	if err != nil {
		return nil, err
	}
	compileTime := time.Since(compileStart)
	// When the caller's context carries a trace span (the server's
	// search span), the phases land there as child spans; span is
	// nil — and every call below a no-op — outside a traced request.
	span := obs.SpanFromContext(opts.Context)
	span.AddCompletedChild(obs.PhaseCompile, compileStart, compileTime)
	oracle := opts.Oracle
	if oracle == nil {
		oracle = index.NewBFSOracle(g)
	}
	s := &searcher{
		q:        q,
		kq:       kq,
		oracle:   oracle,
		ordering: opts.Ordering,
		pruning:  !opts.DisableKeywordPruning,
		uncapped: opts.UncappedPruneBound,
		maxNodes: opts.MaxNodes,
		probe:    opts.Probe,
		slice:    slice,
		heap:     newTopN(q.N),
		si:       make([]graph.Vertex, 0, q.P),
	}
	s.stats.CompileTime = compileTime
	if opts.MaxDuration > 0 {
		s.deadline = time.Now().Add(opts.MaxDuration)
		s.hasDeadline = true
	}
	s.ctx = opts.Context
	s.checkAbort = s.hasDeadline || s.ctx != nil
	// Per-depth scratch: covered-set buffers and effort histograms.
	s.coverBuf = make([]bitset.Set, q.P+1)
	for d := range s.coverBuf {
		s.coverBuf[d] = bitset.New(kq.Width())
	}
	s.stats.DepthNodes = make([]int64, q.P+1)
	s.stats.DepthPruned = make([]int64, q.P+1)
	s.stats.DepthFiltered = make([]int64, q.P+1)

	candStart := time.Now()
	// Initial S_R: vertices covering at least one query keyword, minus
	// explicit exclusions and anyone socially close to a query vertex,
	// ranked by the configured ordering (VKC w.r.t. the empty group
	// equals the static coverage count).
	var excluded []bool
	if len(opts.ExcludeVertices) > 0 {
		excluded = make([]bool, g.NumVertices())
		for _, v := range opts.ExcludeVertices {
			if int(v) < len(excluded) {
				excluded[v] = true
			}
		}
	}
	cands := kq.Candidates()
	frontier := make([]candidate, 0, len(cands))
	for _, v := range cands {
		if excluded != nil && excluded[v] {
			continue
		}
		nearQueryVertex := false
		for _, qv := range opts.QueryVertices {
			s.stats.OracleCalls++
			if oracle.Within(qv, v, q.K) {
				nearQueryVertex = true
				break
			}
		}
		if nearQueryVertex {
			s.stats.Filtered++
			continue
		}
		frontier = append(frontier, candidate{v: v, key: int32(kq.CoverageCount(v))})
	}
	root := s.rankFrontier(g, frontier)
	s.frontier = len(root)
	s.stats.CandidateTime = time.Since(candStart)
	if s.probe != nil {
		// Owned depth-0 iterations: the root loop runs for i in
		// [0, frontier-P], and a partial search strides it by its slice.
		iters := len(root) - q.P + 1
		if iters < 0 {
			iters = 0
		}
		owned := iters
		if slice != nil {
			owned = 0
			if iters > slice.Index {
				owned = (iters - slice.Index + slice.Count - 1) / slice.Count
			}
		}
		s.probe.begin()
		s.probe.setFrontier(owned, len(root))
	}
	span.AddCompletedChild(obs.PhaseCandidates, candStart, s.stats.CandidateTime,
		obs.Attr{Key: "size", Value: strconv.Itoa(len(root))})

	exploreStart := time.Now()
	// A context cancelled before exploration starts skips it outright —
	// the throttled in-loop checks would otherwise admit up to a few
	// hundred nodes first.
	if s.ctx != nil && s.ctx.Err() != nil {
		s.ctxErr = s.ctx.Err()
		s.budgetHit = true
		s.probe.abort(s.abortCause(), 0)
	} else {
		s.explore(root, s.remBuf[0], s.coverBuf[0], 0)
	}
	s.stats.ExploreTime = time.Since(exploreStart)
	// nodes/pruned include branch-and-bound effort; filtered counts the
	// k-line filter's removals (Theorem 3).
	span.AddCompletedChild(obs.PhaseExplore, exploreStart, s.stats.ExploreTime,
		obs.Attr{Key: "nodes", Value: strconv.FormatInt(s.stats.Nodes, 10)},
		obs.Attr{Key: "pruned", Value: strconv.FormatInt(s.stats.Pruned, 10)},
		obs.Attr{Key: "filtered", Value: strconv.FormatInt(s.stats.Filtered, 10)})

	logger.Debug("ktg: search done",
		"groups", len(s.heap.items), "nodes", s.stats.Nodes, "pruned", s.stats.Pruned,
		"filtered", s.stats.Filtered, "oracle_calls", s.stats.OracleCalls,
		"feasible", s.stats.Feasible, "explore", s.stats.ExploreTime,
		"budget_hit", s.budgetHit)
	s.probe.endSearch(s.stats, s.kq.Width())
	return s, nil
}

// abortCause names why the search stopped early, for explain-plan
// attribution: an external cancellation, a deadline (the context's or
// MaxDuration's), or — mapped by the caller directly — the node budget.
func (s *searcher) abortCause() string {
	if s.ctxErr != nil && !errors.Is(s.ctxErr, context.DeadlineExceeded) {
		return "cancelled"
	}
	return "deadline"
}

// finishErr maps budget exhaustion or cancellation onto the search error
// contract: the caller still gets the best groups found so far, paired
// with a wrapped context error or ErrBudgetExhausted.
func (s *searcher) finishErr() error {
	if !s.budgetHit {
		return nil
	}
	if s.ctxErr != nil {
		return fmt.Errorf("search cancelled after %d nodes: %w", s.stats.Nodes, s.ctxErr)
	}
	return fmt.Errorf("search aborted after %d nodes: %w", s.stats.Nodes, ErrBudgetExhausted)
}

// candidate is one member of S_R. rank is the vertex's static position
// in the depth-0 frontier, which indexes every rank bitset and conflict
// row of the search.
type candidate struct {
	v    graph.Vertex
	key  int32 // VKC count (or static coverage count under OrderQKC)
	rank int32
}

type searcher struct {
	q           Query
	kq          *keywords.Query
	oracle      index.Oracle
	ordering    Ordering
	pruning     bool
	uncapped    bool
	maxNodes    int64
	deadline    time.Time
	hasDeadline bool
	ctx         context.Context
	checkAbort  bool // hasDeadline || ctx != nil
	ctxErr      error
	probe       *Probe

	heap     *topN
	stats    Stats
	si       []graph.Vertex
	coverBuf []bitset.Set

	// Frontier-rank state, fixed by rankFrontier. byRank maps a rank to
	// its vertex; remBuf[d] is the rank bitset of the candidates still
	// ahead at depth d; candBuf[d] receives depth d's child S_R and
	// scratch the survivors before they are ordered; keyCount is the
	// counting sort's histogram over keys 0..|W_Q|. Rank bitsets are
	// plain words rather than bitset.Set so one pass can filter, count
	// and build the child set without per-bit range checks.
	byRank   []graph.Vertex
	words    int // uint64 words per rank bitset
	remBuf   [][]uint64
	candBuf  [][]candidate
	scratch  []candidate
	keyCount []int

	// Conflict rows: rank r's row, once chosen as a member, lives at row
	// rowAt[r]-1 of the rows slab (0 = none yet) as two rank bitsets,
	// the pairs already resolved and those within K. spare is the
	// uncached row handed out once the slab reaches conflictRowBytes.
	rowAt    []int32
	rows     []uint64
	rowsUsed int
	spare    []uint64

	// Partial-search state: slice restricts depth-0 roots to a stride of
	// the frontier and turns on offer recording; curRoot/rootSeq tag each
	// accepted offer with its position in the deterministic exploration
	// order so MergePartials can replay the global offer stream.
	slice    *CandidateSlice
	frontier int
	offers   []PartialOffer
	curRoot  int
	rootSeq  int

	budgetHit bool
}

// aborted reports whether the wall-clock deadline has passed or the
// context has been cancelled, remembering the context error for the
// final result. Callers gate it behind checkAbort plus a counter mask,
// so the hot path pays at most one branch per node.
func (s *searcher) aborted() bool {
	if s.hasDeadline && time.Now().After(s.deadline) {
		return true
	}
	if s.ctx != nil {
		select {
		case <-s.ctx.Done():
			s.ctxErr = s.ctx.Err()
			return true
		default:
		}
	}
	return false
}

// rankFrontier fixes the depth-0 frontier. pool holds the initial S_R in
// ascending id order; each candidate gets its static rank — ascending
// (degree, id) under VKC-DEG, ascending id otherwise — and the root is
// returned in (key desc, rank asc) order, which is the ordering's
// (key desc, degree asc, id asc) ranking. It also sizes every per-search
// buffer once.
func (s *searcher) rankFrontier(g graph.Topology, pool []candidate) []candidate {
	f, p := len(pool), s.q.P
	if s.ordering == OrderVKCDegree {
		// rank holds the degree until the loop below assigns ranks.
		for i := range pool {
			pool[i].rank = int32(g.Degree(pool[i].v))
		}
		slices.SortFunc(pool, func(a, b candidate) int {
			if a.rank != b.rank {
				return int(a.rank - b.rank)
			}
			return int(a.v) - int(b.v)
		})
	}
	s.byRank = make([]graph.Vertex, f)
	for i := range pool {
		pool[i].rank = int32(i)
		s.byRank[i] = pool[i].v
	}
	s.words = (f + 63) / 64
	s.rowAt = make([]int32, f)
	s.keyCount = make([]int, s.kq.Width()+1)

	// One slab holds the root and a capacity-F child buffer per depth
	// that builds children (the last level's children are complete
	// groups and need no S_R); another holds the per-depth rank bitsets.
	slab := make([]candidate, p*f)
	root := countingSort(pool, slab[:0:f], s.keyCount)
	s.scratch = pool[:0]
	s.candBuf = make([][]candidate, p-1)
	for d := range s.candBuf {
		s.candBuf[d] = slab[(d+1)*f : (d+1)*f : (d+2)*f]
	}
	words := make([]uint64, p*s.words)
	s.remBuf = make([][]uint64, p)
	for d := range s.remBuf {
		s.remBuf[d] = words[d*s.words : (d+1)*s.words]
	}
	for r := 0; r < f; r++ {
		s.remBuf[0][r>>6] |= 1 << (r & 63)
	}
	return root
}

// explore expands one branch-and-bound node: si (the intermediate group
// S_I) has `depth` members jointly covering `covered`, cands is the
// remaining candidate set S_R, ranked and already k-line-compatible with
// every member of S_I, and rem holds the ranks of cands as a bitset.
func (s *searcher) explore(cands []candidate, rem []uint64, covered bitset.Set, depth int) {
	s.stats.Nodes++
	s.stats.DepthNodes[depth]++
	if s.probe != nil {
		s.probe.tick()
	}
	if s.maxNodes > 0 && s.stats.Nodes > s.maxNodes {
		s.budgetHit = true
		s.probe.abort("node_budget", depth)
		return
	}
	if s.checkAbort && s.stats.Nodes&deadlineNodeMask == 0 && s.aborted() {
		s.budgetHit = true
		s.probe.abort(s.abortCause(), depth)
		return
	}
	need := s.q.P - depth
	if need == 0 {
		s.stats.Feasible++
		s.offer(covered.Count())
		return
	}
	if len(cands) < need {
		return
	}
	childCover := s.coverBuf[depth+1]
	// With one member still needed, each child is a complete group:
	// only its coverage counts, so its S_R is neither filtered into a
	// bitset nor ordered.
	var childRem []uint64
	if need > 1 {
		childRem = s.remBuf[depth+1]
	}
	for i := 0; i+need <= len(cands); i++ {
		v := cands[i]
		// From here on rem holds exactly the ranks of cands[i+1:].
		rem[v.rank>>6] &^= 1 << (v.rank & 63)
		if depth == 0 && s.slice != nil {
			if !s.slice.owns(i) {
				continue
			}
			// Tag the subtree: every offer below this root records
			// (RootPos=i, Seq=discovery order) for the merge replay.
			s.curRoot = i
			s.rootSeq = 0
		}
		if s.pruning {
			// Theorem 2: coverage already secured plus the best
			// possible increment from the top `need` remaining
			// candidates bounds every group formed from cands[i:].
			// Group coverage can never exceed |W_Q|, so the bound is
			// capped there — once N full-coverage groups are held,
			// the whole remaining frontier collapses. Keys are sorted
			// descending, so the bound is monotone in i and the loop
			// can stop outright rather than skip.
			ub := covered.Count()
			for j := i; j < i+need; j++ {
				ub += int(cands[j].key)
			}
			if !s.uncapped {
				if w := s.kq.Width(); ub > w {
					ub = w
				}
			}
			if ub <= s.heap.Threshold() {
				s.stats.Pruned++
				s.stats.DepthPruned[depth]++
				break
			}
		}
		childCover.CopyFrom(covered)
		childCover.UnionWith(s.kq.Mask(v.v))

		// k-line filtering (Theorem 3): drop candidates within K of v,
		// word-parallel against v's conflict row.
		within, ok := s.conflicts(v.rank, rem, depth)
		if !ok {
			return
		}
		filtered := 0
		for w, r := range rem {
			filtered += bits.OnesCount64(r & within[w])
			if childRem != nil {
				childRem[w] = r &^ within[w]
			}
		}
		s.stats.Filtered += int64(filtered)
		s.stats.DepthFiltered[depth] += int64(filtered)
		var child []candidate
		if childRem != nil {
			child = s.children(cands[i+1:], childRem, childCover, depth)
		}

		s.si = append(s.si, v.v)
		s.explore(child, childRem, childCover, depth+1)
		s.si = s.si[:len(s.si)-1]
		if s.budgetHit {
			return
		}
		if depth == 0 && s.probe != nil {
			s.probe.rootDone()
		}
	}
}

// conflicts returns the within-K row of the member at rank r, complete
// over rem. Each pair (r, u), u in rem, is resolved from r's memoised
// row, from the symmetric bit of u's row, or by one oracle call that r's
// row then remembers, so a search asks the oracle about each unordered
// pair at most once while its rows fit under conflictRowBytes. The
// wall-clock deadline and the context are re-checked every few hundred
// oracle calls: with a slow oracle (bounded BFS on a large graph) one
// row fill can dwarf the per-node budget check. ok is false when the
// search aborted mid-fill.
func (s *searcher) conflicts(r int32, rem []uint64, depth int) (within []uint64, ok bool) {
	known, within := s.row(r)
	n := s.words
	vr := s.byRank[r]
	rw, rbit := int(r>>6), uint64(1)<<(r&63)
	for w, x := range rem {
		ask := x &^ known[w]
		if ask == 0 {
			continue
		}
		var hits uint64
		for rest := ask; rest != 0; rest &= rest - 1 {
			b := bits.TrailingZeros64(rest)
			u := w<<6 | b
			if at := s.rowAt[u]; at != 0 {
				if off := int(at-1) * 2 * n; s.rows[off+rw]&rbit != 0 {
					if s.rows[off+n+rw]&rbit != 0 {
						hits |= 1 << b
					}
					continue
				}
			}
			s.stats.OracleCalls++
			if s.checkAbort && s.stats.OracleCalls&deadlineOracleMask == 0 && s.aborted() {
				s.budgetHit = true
				s.probe.abort(s.abortCause(), depth)
				return nil, false
			}
			if s.oracle.Within(vr, s.byRank[u], s.q.K) {
				hits |= 1 << b
			}
		}
		known[w] |= ask
		within[w] |= hits
	}
	return within, true
}

// row returns rank r's conflict row as (known, within) rank bitsets. The
// first call for r carves the row from the per-search slab, which grows
// by doubling up to conflictRowBytes; past the cap r gets the cleared
// spare row, whose answers are not kept.
func (s *searcher) row(r int32) (known, within []uint64) {
	n := s.words
	if at := s.rowAt[r]; at != 0 {
		off := int(at-1) * 2 * n
		return s.rows[off : off+n], s.rows[off+n : off+2*n]
	}
	off := s.rowsUsed * 2 * n
	end := off + 2*n
	if end > len(s.rows) {
		limit := min(conflictRowBytes/8/(2*n), len(s.rowAt)) * 2 * n
		if end > limit {
			if s.spare == nil {
				s.spare = make([]uint64, 2*n)
			} else {
				clear(s.spare)
			}
			return s.spare[:n], s.spare[n:]
		}
		grown := make([]uint64, min(max(2*len(s.rows), 16*2*n), limit))
		copy(grown, s.rows)
		s.rows = grown
	}
	s.rowsUsed++
	s.rowAt[r] = int32(s.rowsUsed)
	return s.rows[off : off+n], s.rows[off+n : end]
}

// children builds depth's child S_R from its rank bitset set. Under
// QKC it keeps the parent's order. Otherwise it collects the survivors
// in ascending rank with their VKC keys w.r.t. covered and
// counting-sorts them by key, giving (key desc, rank asc) — the
// ordering's (key desc, degree asc, id asc) ranking without a
// comparison sort.
func (s *searcher) children(parent []candidate, set []uint64, covered bitset.Set, depth int) []candidate {
	child := s.candBuf[depth][:0]
	if s.ordering == OrderQKC {
		for _, u := range parent {
			if set[u.rank>>6]&(1<<(u.rank&63)) != 0 {
				child = append(child, u)
			}
		}
		return child
	}
	survivors := s.scratch[:0]
	for w, x := range set {
		for ; x != 0; x &= x - 1 {
			r := w<<6 | bits.TrailingZeros64(x)
			v := s.byRank[r]
			survivors = append(survivors, candidate{v: v, key: int32(s.kq.VKCCount(v, covered)), rank: int32(r)})
		}
	}
	return countingSort(survivors, child, s.keyCount)
}

// countingSort writes src into dst by descending key, stably, so a src
// in ascending rank comes out in (key desc, rank asc). Keys lie in
// [0, len(count)); count is scratch. dst must not overlap src.
func countingSort(src, dst []candidate, count []int) []candidate {
	clear(count)
	for _, c := range src {
		count[c.key]++
	}
	pos := 0
	for k := len(count) - 1; k >= 0; k-- {
		pos, count[k] = pos+count[k], pos
	}
	dst = dst[:len(src)]
	for _, c := range src {
		dst[count[c.key]] = c
		count[c.key]++
	}
	return dst
}

// offer submits the current S_I as a feasible group. Under a partial
// search, accepted offers are also appended to the replay stream.
func (s *searcher) offer(coverage int) {
	members := slices.Clone(s.si)
	slices.Sort(members)
	if !s.heap.Offer(members, coverage) {
		return
	}
	if s.probe != nil {
		s.probe.offerAccepted(coverage, s.heap.Threshold())
	}
	if s.slice != nil {
		s.offers = append(s.offers, PartialOffer{
			Group:   Group{Members: members, Coverage: coverage},
			RootPos: s.curRoot,
			Seq:     s.rootSeq,
		})
		s.rootSeq++
	}
}
