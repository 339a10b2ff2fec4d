package main

import (
	"fmt"
	"time"

	"ktg"
)

// paper-uncapped: the paper's cost model, in process.
const (
	paperScale   = 0.005
	paperCallers = 1
	// paperQueries is far more queries than a run can reach.
	paperQueries = 20000
	// paperPrefix is how many leading queries the exact work counters
	// and digests cover; every run completes at least this many.
	paperPrefix = 64
	// paperTail is the tail percentile reported: the highest with at
	// least ten samples beyond it in every run.
	paperTail = 0.9
)

var paperQuery = ktg.Query{GroupSize: 3, Tenuity: 2, TopN: 7}

const paperKeywords = 6

// searchOp is one timed library search.
type searchOp struct {
	lat time.Duration
	res *ktg.Result
	err error
}

func runPaper(cfg config) (*report, error) {
	r := newReport()
	sys, err := setUpMeasured(r, inProcess, paperScale, cfg.work, false, cfg.seed)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	d := sys.data[0]
	_, g, err := queryGen(paperScale, cfg.seed)
	if err != nil {
		return nil, err
	}
	qs, err := distinctQueries(g, paperQueries, paperKeywords)
	if err != nil {
		return nil, err
	}
	query := func(i int) ktg.Query {
		q := paperQuery
		q.Keywords = qs[i]
		return q
	}

	// The warm-up queries are the last ones, which no run reaches.
	if err := warmUp(paperCallers, warmups, func(i int) error {
		_, err := d.nw.Search(query(len(qs)-1-i), ktg.SearchOptions{Index: d.idx, UncappedPruneBound: true})
		return err
	}); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	phase := cfg.seconds
	if cfg.trace {
		phase /= 2
	}
	ops := make([]searchOp, len(qs))
	alloc := startAlloc()
	done, elapsed, err := closedLoop(paperCallers, len(qs), phase, func(_, i int) {
		t0 := time.Now()
		res, err := d.nw.Search(query(i), ktg.SearchOptions{Index: d.idx, UncappedPruneBound: true})
		ops[i] = searchOp{lat: time.Since(t0), res: res, err: err}
	})
	allocBytes := alloc.bytes()
	if err != nil {
		return nil, err
	}
	ops = ops[:done]
	if done < paperPrefix {
		return nil, fmt.Errorf("only %d queries completed, the work counters need %d", done, paperPrefix)
	}

	var lats []time.Duration
	var phases phaseTimes
	for _, o := range ops {
		r.attempted++
		if o.err != nil || o.res == nil {
			r.failed++
			continue
		}
		lats = append(lats, o.lat)
		phases.add(o.res.Stats)
	}
	reportLatency(r, lats, paperTail)
	r.set("throughput_ops", float64(len(lats))/elapsed.Seconds())
	r.set("alloc_kb_per_op", float64(allocBytes)/float64(done)/1024)
	r.set("ok_frac", 1-float64(r.failed)/float64(r.attempted))
	r.set("failed_frac", float64(r.failed)/float64(r.attempted))
	phases.report(r)
	prefix := make([]*ktg.Result, paperPrefix)
	for i := range prefix {
		prefix[i] = ops[i].res
	}
	reportWork(r, prefix)

	// Verify every answer outside the timed region: the uncapped search
	// must cover exactly as much as the capped one (both are exact), and
	// every group must be tenuous and cover what it claims.
	bfs := d.nw.NewBFSIndex()
	verify := func(i int, res *ktg.Result) error {
		if res == nil {
			return nil
		}
		q := query(i)
		capped, err := d.nw.Search(q, ktg.SearchOptions{Index: d.idx})
		if err != nil {
			return fmt.Errorf("query %d: capped reference search: %w", i, err)
		}
		got := fromLibrary(res.Groups)
		if err := sameCoverage(got, fromLibrary(capped.Groups)); err != nil {
			return fmt.Errorf("query %d %v: uncapped vs capped bound: %w", i, q.Keywords, err)
		}
		if err := checkGroups(d.nw, bfs, q, got); err != nil {
			return fmt.Errorf("query %d %v: %w", i, q.Keywords, err)
		}
		return nil
	}
	for i, o := range ops {
		if err := verify(i, o.res); err != nil {
			return r, wrong(err)
		}
	}
	if !cfg.trace {
		return r, nil
	}
	traced, err := tracePaper(r, d, query, len(qs), phase, float64(done)/elapsed.Seconds(), mean(lats))
	if err != nil {
		return r, err
	}
	for i, res := range traced {
		if i >= done {
			err = verify(i, res)
		} else if res != nil && ops[i].res != nil {
			err = sameAnswers(fromLibrary(res.Groups), fromLibrary(ops[i].res.Groups))
		}
		if err != nil {
			return r, wrong(fmt.Errorf("traced query %d: %w", i, err))
		}
	}
	return r, nil
}

// tracePaper replays the same queries from the start with every layer
// call timed from outside, reports self times per layer and returns the
// traced answers for verification.
func tracePaper(r *report, d *dataset, query func(int) ktg.Query, n int, phase time.Duration,
	untracedTput float64, untracedMean time.Duration) ([]*ktg.Result, error) {
	idxs := make([]*timedIndex, paperCallers)
	for c := range idxs {
		idxs[c] = &timedIndex{inner: d.idx}
	}
	roots := make([]*span, n)
	withinCalls := make([]int64, n)
	withinDur := make([]time.Duration, n)
	results := make([]*ktg.Result, n)
	done, elapsed, err := closedLoop(paperCallers, n, phase, func(c, i int) {
		x := idxs[c]
		x.reset()
		t0 := time.Now()
		q := query(i)
		s0 := time.Now()
		res, err := d.nw.Search(q, ktg.SearchOptions{Index: x, UncappedPruneBound: true})
		s1 := time.Now()
		root := &span{layer: layerBench, start: t0}
		facade := root.add(layerFacade, s0, s1)
		if err == nil && res != nil {
			st := res.Stats
			a := s0
			facade.add(layerCompile, a, a.Add(st.CompileTime))
			a = a.Add(st.CompileTime)
			facade.add(layerCandidates, a, a.Add(st.CandidateTime))
			a = a.Add(st.CandidateTime)
			ex := facade.add(layerExplore, a, a.Add(st.ExploreTime))
			ex.add(layerIndex, a, a.Add(x.dur()))
		}
		withinCalls[i], withinDur[i], results[i] = x.calls, x.dur(), res
		root.end = time.Now()
		roots[i] = root
	})
	if err != nil {
		return nil, err
	}
	if done < paperPrefix {
		return nil, fmt.Errorf("traced phase completed %d queries, want at least %d", done, paperPrefix)
	}
	t := newSelfTable(roots[:done])
	t.print(r, "paper-uncapped")
	var calls int64
	var dur time.Duration
	for i := 0; i < done; i++ {
		dur += withinDur[i]
		calls += withinCalls[i]
	}
	var prefixCalls int64
	for i := 0; i < paperPrefix; i++ {
		prefixCalls += withinCalls[i]
	}
	r.set("index.within_calls_per_query", float64(prefixCalls)/paperPrefix)
	r.set("index.within_ns", float64(dur)/float64(calls))
	r.set("core.explore_self_ms", ms(t.meanSelf(layerExplore)))
	finishTrace(r, t, float64(done)/elapsed.Seconds(), untracedTput, untracedMean)
	return results[:done], nil
}

// finishTrace reports the tracing overhead and how much of an op the
// layers account for.
func finishTrace(r *report, t *selfTable, tracedTput, untracedTput float64, untracedMean time.Duration) {
	overhead := 1 - tracedTput/untracedTput
	r.set("bench.trace_overhead_frac", overhead)
	unattributed := float64(t.self[layerBench]) / float64(t.total)
	r.set("bench.unattributed_frac", unattributed)
	residual := 1 - float64(t.attributed())/float64(untracedMean)
	r.set("bench.residual_frac", residual)
	r.notef("  unattributed %s of the traced op; layers sum to %.4f ms against an untraced mean op of %.4f ms (residual %s); tracing cost %s of throughput",
		fmtPct(unattributed), ms(t.attributed()), ms(untracedMean), fmtPct(residual), fmtPct(overhead))
}

// reportLatency sets the latency metrics over all of a phase's samples:
// the median and the tail percentile, which drops a ladder step if too
// few samples lie beyond it.
func reportLatency(r *report, lats []time.Duration, tail float64) {
	if beyond(len(lats), tail) < 10 {
		tail = tailQuantile(len(lats))
	}
	p50, t := ms(quantile(lats, 0.5)), ms(quantile(lats, tail))
	r.set("latency_p50_ms", p50)
	r.set("latency_tail_ms", t)
	r.notef("latency: p50 %.3f ms, tail p%g %.3f ms over %d samples (%d beyond the tail)",
		p50, 100*tail, t, len(lats), beyond(len(lats), tail))
}

// reportWork sets the exact per-query work counters and prints the
// answer and work digests over a fixed prefix of queries.
func reportWork(r *report, prefix []*ktg.Result) {
	var tot work
	var answers, works []any
	for _, res := range prefix {
		if res == nil {
			answers, works = append(answers, nil), append(works, nil)
			continue
		}
		w := workOf(res.Stats)
		tot.add(w)
		answers = append(answers, fromLibrary(res.Groups))
		works = append(works, w)
	}
	setWork(r, tot, len(prefix))
	r.notef("answers_digest %s work_digest %s (first %d queries)", digestOf(answers), digestOf(works), len(prefix))
}

func setWork(r *report, tot work, n int) {
	if n == 0 {
		return
	}
	f := float64(n)
	r.set("core.nodes_per_query", float64(tot.Nodes)/f)
	r.set("core.pruned_per_query", float64(tot.Pruned)/f)
	r.set("core.filtered_per_query", float64(tot.Filtered)/f)
	r.set("core.feasible_per_query", float64(tot.Feasible)/f)
	r.set("core.checks_per_query", float64(tot.Checks)/f)
	if tot.Checks > 0 {
		r.set("core.filter_hit_frac", float64(tot.Filtered)/float64(tot.Checks))
	}
}
