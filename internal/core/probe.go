package core

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"time"
)

// Probe sizing defaults and caps.
const (
	// defaultSnapshotEvery is the node cadence (rounded up to a power of
	// two) at which an attached Probe publishes a progress snapshot.
	defaultSnapshotEvery = 1024
	// maxBoundSteps bounds the recorded bound trajectory; improvements
	// past the cap still update the scalar summary (best, threshold,
	// time-to-final) and are counted in BoundsDropped.
	maxBoundSteps = 1024
)

// Probe collects a per-query explain plan and live progress while a
// search runs. All collection methods are nil-safe: a nil *Probe costs
// the hot path exactly one predictable branch per event, so production
// searches without "explain" pay nothing measurable.
//
// A Probe is single-use and single-writer: the searching goroutine owns
// every field except the published snapshot, which other goroutines may
// read concurrently via Snapshot() (an atomic pointer load, no locks).
// Explain() must only be called after the search has returned.
//
// One Probe may observe several sequential searches (SearchDiverse runs
// one per result group): counters, depth histograms, and the bound
// trajectory accumulate across them.
type Probe struct {
	// SnapshotEvery is how many explored nodes pass between progress
	// publications (0 = default 1024; rounded up to a power of two so
	// the cadence check is a mask test).
	SnapshotEvery int64

	started bool
	start   time.Time
	mask    int64

	nodes         int64
	rootsDone     int64
	rootsTotal    int64
	best          int
	threshold     int
	bounds        []BoundStep
	boundsDropped int64
	firstNS       int64
	finalNS       int64
	abortReason   string
	abortDepth    int

	stats    Stats
	frontier int
	width    int
	done     bool

	progress atomic.Pointer[Progress]
}

// Progress is one point-in-time snapshot of a running search, published
// by the search goroutine via atomic pointer swap so concurrent readers
// never see a torn write. Counters are monotone across snapshots of one
// query.
type Progress struct {
	// ElapsedNS is wall-clock time since the probe started observing.
	ElapsedNS int64 `json:"elapsed_ns"`
	// Nodes is the number of branch-and-bound nodes explored so far.
	Nodes int64 `json:"nodes"`
	// RootsExplored / RootsTotal track the depth-0 frontier: how many
	// owned root subtrees have been fully explored out of how many the
	// search was assigned. Completing by pruning can finish with
	// RootsExplored < RootsTotal (the remainder was cut, not visited).
	RootsExplored int64 `json:"roots_explored"`
	RootsTotal    int64 `json:"roots_total"`
	// Best is the highest coverage accepted so far (0 = none yet).
	Best int `json:"best"`
	// Threshold is the current top-N threshold C_max (-1 until N
	// groups are held).
	Threshold int `json:"threshold"`
	// NodesPerSec is the average exploration rate since start.
	NodesPerSec float64 `json:"nodes_per_sec"`
	// Done marks the final snapshot of a completed search.
	Done bool `json:"done"`
}

// BoundStep is one improvement of the top-N state: a group was accepted
// into the heap, stamped with when it happened and how much work had
// been done by then.
type BoundStep struct {
	ElapsedNS int64 `json:"elapsed_ns"`
	// Nodes is the number of nodes explored when the offer was accepted.
	Nodes int64 `json:"nodes"`
	// Coverage is the accepted group's coverage.
	Coverage int `json:"coverage"`
	// Best/Threshold are the top-N state right after acceptance.
	Best      int `json:"best"`
	Threshold int `json:"threshold"`
	// Shard attributes the step in a coordinator-merged trajectory
	// (1-based; 0 = single-node / unattributed).
	Shard int `json:"shard,omitempty"`
}

// ExplainDepth is one row of the per-depth effort breakdown. Row d
// describes work done while the intermediate group held d members:
// Expanded counts children descended into (nodes entered at depth d+1),
// PrunedBound counts Theorem 2 keyword-bound subtree cuts, and
// FilteredKLine counts Theorem 3 k-line candidate removals.
type ExplainDepth struct {
	Depth         int   `json:"depth"`
	Expanded      int64 `json:"expanded"`
	PrunedBound   int64 `json:"pruned_bound"`
	FilteredKLine int64 `json:"filtered_kline"`
}

// ShardExplain is one shard's contribution to a coordinator-merged
// explain, so frontier skew across shards stays visible after the sum.
type ShardExplain struct {
	// Shard is the 1-based shard ordinal in the coordinator's shard
	// list; URL is its base URL.
	Shard         int    `json:"shard"`
	URL           string `json:"url,omitempty"`
	Nodes         int64  `json:"nodes"`
	Pruned        int64  `json:"pruned"`
	Filtered      int64  `json:"filtered"`
	OracleCalls   int64  `json:"oracle_calls"`
	Feasible      int64  `json:"feasible"`
	RootsTotal    int64  `json:"roots_total"`
	RootsExplored int64  `json:"roots_explored"`
	FinalBest     int    `json:"final_best"`
	FinalThresh   int    `json:"final_threshold"`
	ElapsedNS     int64  `json:"elapsed_ns"`
	Aborted       string `json:"aborted,omitempty"`
}

// Explain is the structured explain plan of one search: totals, the
// per-depth expand/prune/filter breakdown, and the bound trajectory.
// Servers stamp Algorithm and (on live datasets) Epoch; a coordinator
// fills Shards and interleaves the per-shard trajectories.
type Explain struct {
	Algorithm string `json:"algorithm,omitempty"`
	// Epoch is the live-dataset epoch the search ran against (0 =
	// static dataset or not applicable).
	Epoch      uint64 `json:"epoch,omitempty"`
	QueryWidth int    `json:"query_width"`
	// FrontierSize is the size of the ranked depth-0 candidate set S_R.
	FrontierSize  int   `json:"frontier_size"`
	RootsTotal    int64 `json:"roots_total"`
	RootsExplored int64 `json:"roots_explored"`
	Nodes         int64 `json:"nodes"`
	Pruned        int64 `json:"pruned"`
	Filtered      int64 `json:"filtered"`
	OracleCalls   int64 `json:"oracle_calls"`
	Feasible      int64 `json:"feasible"`
	// Depths holds rows 0..P-1; prune/filter events never occur at
	// depth P (complete groups), so nothing is lost by the bound.
	Depths []ExplainDepth `json:"depths,omitempty"`
	// Bounds is the bound trajectory: every accepted offer in time
	// order. BoundsDropped counts steps past the recording cap.
	Bounds        []BoundStep `json:"bound_trajectory,omitempty"`
	BoundsDropped int64       `json:"bounds_dropped,omitempty"`
	FinalBest     int         `json:"final_best"`
	FinalThresh   int         `json:"final_threshold"`
	// TimeToFirstNS / TimeToFinalNS stamp the first accepted offer and
	// the last top-N improvement (0 = no group was ever accepted).
	TimeToFirstNS int64  `json:"time_to_first_result_ns,omitempty"`
	TimeToFinalNS int64  `json:"time_to_final_improvement_ns,omitempty"`
	Aborted       string `json:"aborted,omitempty"`
	AbortDepth    int    `json:"abort_depth,omitempty"`
	ElapsedNS     int64  `json:"elapsed_ns"`
	// Shards breaks a coordinator-merged explain down per shard.
	Shards []ShardExplain `json:"shards,omitempty"`
}

// begin starts the probe clock and snapshot cadence. Idempotent, so one
// probe can observe the sequential sub-searches of SearchDiverse.
func (p *Probe) begin() {
	if p == nil || p.started {
		return
	}
	p.started = true
	p.start = time.Now()
	every := p.SnapshotEvery
	if every <= 0 {
		every = defaultSnapshotEvery
	}
	m := int64(1)
	for m < every {
		m <<= 1
	}
	p.mask = m - 1
	p.threshold = -1
	p.publish()
}

// setFrontier records the search's share of the depth-0 frontier:
// owned is how many root subtrees this search will iterate, frontier
// the full ranked candidate-set size. Accumulates across sub-searches;
// also clears the done flag so a follow-up sub-search reads as live.
func (p *Probe) setFrontier(owned, frontier int) {
	if p == nil {
		return
	}
	p.rootsTotal += int64(owned)
	if frontier > p.frontier {
		p.frontier = frontier
	}
	p.done = false
	p.publish()
}

// tick records one explored node and republishes progress on the
// snapshot cadence. This is the hot-path method: one increment, one
// mask test.
func (p *Probe) tick() {
	if p == nil {
		return
	}
	p.nodes++
	if p.nodes&p.mask == 0 {
		p.publish()
	}
}

// rootDone records one fully-explored owned depth-0 subtree.
func (p *Probe) rootDone() {
	if p == nil {
		return
	}
	p.rootsDone++
}

// offerAccepted records a top-N improvement: group coverage, the new
// threshold, and a trajectory step stamped with elapsed time and nodes.
func (p *Probe) offerAccepted(coverage, threshold int) {
	if p == nil {
		return
	}
	el := time.Since(p.start).Nanoseconds()
	if p.firstNS == 0 {
		p.firstNS = el
	}
	p.finalNS = el
	if coverage > p.best {
		p.best = coverage
	}
	p.threshold = threshold
	if len(p.bounds) < maxBoundSteps {
		p.bounds = append(p.bounds, BoundStep{
			ElapsedNS: el,
			Nodes:     p.nodes,
			Coverage:  coverage,
			Best:      p.best,
			Threshold: threshold,
		})
	} else {
		p.boundsDropped++
	}
	p.publish()
}

// abort records why the search stopped early (first cause wins) and at
// which depth it was detected. Reasons: "node_budget", "deadline",
// "cancelled".
func (p *Probe) abort(reason string, depth int) {
	if p == nil || p.abortReason != "" {
		return
	}
	p.abortReason = reason
	p.abortDepth = depth
}

// endSearch folds one finished search's stats into the probe, remembers
// the query width, and publishes a final (done) snapshot.
func (p *Probe) endSearch(stats Stats, width int) {
	if p == nil {
		return
	}
	p.stats.Add(stats)
	p.width = width
	p.done = true
	p.publish()
}

// publish swaps in a fresh progress snapshot. Only the search goroutine
// calls it; readers use Snapshot.
func (p *Probe) publish() {
	el := time.Since(p.start).Nanoseconds()
	pr := &Progress{
		ElapsedNS:     el,
		Nodes:         p.nodes,
		RootsExplored: p.rootsDone,
		RootsTotal:    p.rootsTotal,
		Best:          p.best,
		Threshold:     p.threshold,
		Done:          p.done,
	}
	if el > 0 {
		pr.NodesPerSec = float64(p.nodes) / (float64(el) / 1e9)
	}
	p.progress.Store(pr)
}

// Snapshot returns the latest published progress snapshot (nil before
// the search started). Safe to call from any goroutine while the search
// runs; the snapshot itself is immutable.
func (p *Probe) Snapshot() *Progress {
	if p == nil {
		return nil
	}
	return p.progress.Load()
}

// Explain assembles the structured explain plan. Call only after the
// observed search has returned: the underlying fields are owned by the
// search goroutine until then.
func (p *Probe) Explain() *Explain {
	if p == nil {
		return nil
	}
	e := &Explain{
		QueryWidth:    p.width,
		FrontierSize:  p.frontier,
		RootsTotal:    p.rootsTotal,
		RootsExplored: p.rootsDone,
		Nodes:         p.stats.Nodes,
		Pruned:        p.stats.Pruned,
		Filtered:      p.stats.Filtered,
		OracleCalls:   p.stats.OracleCalls,
		Feasible:      p.stats.Feasible,
		Bounds:        append([]BoundStep(nil), p.bounds...),
		BoundsDropped: p.boundsDropped,
		FinalBest:     p.best,
		FinalThresh:   p.threshold,
		TimeToFirstNS: p.firstNS,
		TimeToFinalNS: p.finalNS,
		Aborted:       p.abortReason,
		AbortDepth:    p.abortDepth,
	}
	// A probe that never reached begin() (e.g. the search rejected the
	// query, or an algorithm that does not support probing ran) has a
	// zero start time; leave ElapsedNS zero rather than reporting the
	// distance to the epoch.
	if p.started {
		e.ElapsedNS = time.Since(p.start).Nanoseconds()
	}
	// Row d aggregates work done while S_I held d members: children
	// entered (DepthNodes[d+1]), Theorem 2 cuts, Theorem 3 removals.
	// The depth-0 entry node itself (DepthNodes[0]) is bookkeeping, not
	// a row — which also keeps per-shard partial explains summable.
	for d := 0; d+1 < len(p.stats.DepthNodes); d++ {
		e.Depths = append(e.Depths, ExplainDepth{
			Depth:         d,
			Expanded:      p.stats.DepthNodes[d+1],
			PrunedBound:   p.stats.DepthPruned[d],
			FilteredKLine: p.stats.DepthFiltered[d],
		})
	}
	return e
}

// MergeExplains combines per-shard explain plans into one merged plan:
// counters and depth rows sum, bound trajectories interleave in time
// order with 1-based shard attribution, and the per-shard breakdown is
// retained under Shards. urls, when non-nil, must parallel parts and
// labels each shard's base URL. Because partial searches partition the
// depth-0 frontier into disjoint subtrees, the summed expand/prune/
// filter rows are directly comparable to a single-node explain of the
// same query (and equal whenever the top-N threshold never tightened).
func MergeExplains(parts []*Explain, urls []string) *Explain {
	if len(parts) == 0 {
		return nil
	}
	m := &Explain{FinalThresh: -1}
	for i, part := range parts {
		if part == nil {
			continue
		}
		if part.QueryWidth > m.QueryWidth {
			m.QueryWidth = part.QueryWidth
		}
		if part.FrontierSize > m.FrontierSize {
			m.FrontierSize = part.FrontierSize
		}
		m.RootsTotal += part.RootsTotal
		m.RootsExplored += part.RootsExplored
		m.Nodes += part.Nodes
		m.Pruned += part.Pruned
		m.Filtered += part.Filtered
		m.OracleCalls += part.OracleCalls
		m.Feasible += part.Feasible
		m.BoundsDropped += part.BoundsDropped
		for _, row := range part.Depths {
			for len(m.Depths) <= row.Depth {
				m.Depths = append(m.Depths, ExplainDepth{Depth: len(m.Depths)})
			}
			m.Depths[row.Depth].Expanded += row.Expanded
			m.Depths[row.Depth].PrunedBound += row.PrunedBound
			m.Depths[row.Depth].FilteredKLine += row.FilteredKLine
		}
		for _, b := range part.Bounds {
			b.Shard = i + 1
			m.Bounds = append(m.Bounds, b)
		}
		if part.FinalBest > m.FinalBest {
			m.FinalBest = part.FinalBest
		}
		// The merged threshold is the loosest shard threshold: a shard
		// heap lags the true global C_max, never leads it.
		if part.FinalThresh > m.FinalThresh {
			m.FinalThresh = part.FinalThresh
		}
		if part.TimeToFirstNS > 0 && (m.TimeToFirstNS == 0 || part.TimeToFirstNS < m.TimeToFirstNS) {
			m.TimeToFirstNS = part.TimeToFirstNS
		}
		if part.TimeToFinalNS > m.TimeToFinalNS {
			m.TimeToFinalNS = part.TimeToFinalNS
		}
		if part.ElapsedNS > m.ElapsedNS {
			m.ElapsedNS = part.ElapsedNS
		}
		if part.Aborted != "" && m.Aborted == "" {
			m.Aborted = part.Aborted
			m.AbortDepth = part.AbortDepth
		}
		se := ShardExplain{
			Shard:         i + 1,
			Nodes:         part.Nodes,
			Pruned:        part.Pruned,
			Filtered:      part.Filtered,
			OracleCalls:   part.OracleCalls,
			Feasible:      part.Feasible,
			RootsTotal:    part.RootsTotal,
			RootsExplored: part.RootsExplored,
			FinalBest:     part.FinalBest,
			FinalThresh:   part.FinalThresh,
			ElapsedNS:     part.ElapsedNS,
			Aborted:       part.Aborted,
		}
		if urls != nil && i < len(urls) {
			se.URL = urls[i]
		}
		m.Shards = append(m.Shards, se)
	}
	slices.SortStableFunc(m.Bounds, func(a, b BoundStep) int {
		if c := cmp.Compare(a.ElapsedNS, b.ElapsedNS); c != 0 {
			return c
		}
		return cmp.Compare(a.Nodes, b.Nodes)
	})
	return m
}

// Render formats the explain plan as a human-readable report: a summary
// header, the per-depth effort table, the bound-trajectory timeline,
// and (for merged plans) the per-shard breakdown — the same spirit as
// the /debug/traces waterfall, but for pruning instead of time.
func (e *Explain) Render() string {
	if e == nil {
		return ""
	}
	var b strings.Builder
	alg := e.Algorithm
	if alg == "" {
		alg = "search"
	}
	fmt.Fprintf(&b, "explain %s: |W_Q|=%d frontier=%d roots=%d/%d elapsed=%s\n",
		alg, e.QueryWidth, e.FrontierSize, e.RootsExplored, e.RootsTotal,
		time.Duration(e.ElapsedNS).Round(time.Microsecond))
	fmt.Fprintf(&b, "  nodes=%d pruned=%d filtered=%d oracle_calls=%d feasible=%d\n",
		e.Nodes, e.Pruned, e.Filtered, e.OracleCalls, e.Feasible)
	fmt.Fprintf(&b, "  best=%d threshold=%d", e.FinalBest, e.FinalThresh)
	if e.TimeToFirstNS > 0 {
		fmt.Fprintf(&b, "  first result %s, final improvement %s",
			time.Duration(e.TimeToFirstNS).Round(time.Microsecond),
			time.Duration(e.TimeToFinalNS).Round(time.Microsecond))
	}
	b.WriteByte('\n')
	if e.Epoch != 0 {
		fmt.Fprintf(&b, "  epoch=%d\n", e.Epoch)
	}
	if e.Aborted != "" {
		fmt.Fprintf(&b, "  ABORTED: %s (detected at depth %d)\n", e.Aborted, e.AbortDepth)
	}
	if len(e.Depths) > 0 {
		fmt.Fprintf(&b, "  %-6s %12s %12s %14s\n", "depth", "expanded", "pruned(T2)", "filtered(T3)")
		for _, row := range e.Depths {
			fmt.Fprintf(&b, "  %-6d %12d %12d %14d\n",
				row.Depth, row.Expanded, row.PrunedBound, row.FilteredKLine)
		}
	}
	if len(e.Shards) > 0 {
		fmt.Fprintf(&b, "  %-6s %12s %10s %13s %6s %5s  %s\n",
			"shard", "nodes", "pruned", "roots", "best", "thr", "url")
		for _, s := range e.Shards {
			roots := fmt.Sprintf("%d/%d", s.RootsExplored, s.RootsTotal)
			fmt.Fprintf(&b, "  %-6d %12d %10d %13s %6d %5d  %s\n",
				s.Shard, s.Nodes, s.Pruned, roots, s.FinalBest, s.FinalThresh, s.URL)
		}
	}
	if len(e.Bounds) > 0 {
		b.WriteString("  bound trajectory:\n")
		for _, step := range e.Bounds {
			fmt.Fprintf(&b, "    %10s  nodes=%-10d coverage=%d best=%d threshold=%d",
				time.Duration(step.ElapsedNS).Round(time.Microsecond),
				step.Nodes, step.Coverage, step.Best, step.Threshold)
			if step.Shard > 0 {
				fmt.Fprintf(&b, " shard=%d", step.Shard)
			}
			b.WriteByte('\n')
		}
		if e.BoundsDropped > 0 {
			fmt.Fprintf(&b, "    ... %d further steps not recorded\n", e.BoundsDropped)
		}
	}
	return b.String()
}
