package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"ktg"
	"ktg/internal/client"
)

// fleet-2shard: distinct queries over loopback HTTP to a coordinator in
// front of two shard servers.
const (
	serveScale    = 0.1
	serveKeywords = 6
	// serveSenders and serveCallers are the client goroutines of the
	// open- and closed-loop phases.
	serveSenders = 2
	serveCallers = 2
	// fleetRate is the open-loop send rate, about a fifth of the
	// closed-loop throughput. The open loop gives the exact counters,
	// the generator lag and, in the printed notes, the latency at a
	// fixed rate. The end-to-end latencies come from the closed loop:
	// on the shared host the open-loop median moved by half from run to
	// run at this rate, where idle CPUs are slow to wake, and by more at
	// twice it, where requests queue, while the closed loop moved by a
	// sixth.
	fleetRate = 15.0
	// fleetTail is the tail percentile of the closed-loop latencies.
	fleetTail = 0.9
)

var serveQuery = ktg.Query{GroupSize: 5, Tenuity: 2, TopN: 7}

// httpOp is one timed client call.
type httpOp struct {
	due, start, end time.Time
	resp            *client.Response
	err             error
}

func (o *httpOp) failed() bool {
	return o.err != nil || o.resp.Partial || o.resp.Degraded
}

func runFleet(cfg config) (*report, error) {
	r := newReport()
	sys, err := setUpMeasured(r, fleet, serveScale, cfg.work, cfg.trace, cfg.seed)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	ref := sys.data[0]
	_, g, err := queryGen(serveScale, cfg.seed)
	if err != nil {
		return nil, err
	}
	// The run alternates an open-loop and a closed-loop phase in each of
	// its windows, so both sample the host over the whole run. The open
	// loop takes a third of the time in both modes, so that its fixed
	// query set (and the exact counters over it) is the same.
	openDur := cfg.seconds / 3 / windows
	closedDur := (cfg.seconds - openDur*windows) / windows
	if cfg.trace {
		closedDur /= 2
	}
	perWindow := int(math.Round(fleetRate * openDur.Seconds()))
	nOpen := perWindow * windows
	nClosed := int(closedDur.Seconds()*windows*3000) + 10 // far above any reachable rate
	// The warm-up queries come after every query a run can reach.
	qs, err := distinctQueries(g, nOpen+nClosed+warmups, serveKeywords)
	if err != nil {
		return nil, err
	}
	query := func(i int) ktg.Query {
		q := serveQuery
		q.Keywords = qs[i]
		return q
	}
	call := func(i int) (*client.Response, error) {
		q := query(i)
		return sys.cl.Query(context.Background(), &client.Request{
			Dataset: preset, Keywords: q.Keywords, GroupSize: q.GroupSize, Tenuity: q.Tenuity, TopN: q.TopN,
		})
	}

	if err := warmUp(serveCallers, warmups, func(i int) error {
		_, err := call(nOpen + nClosed + i)
		return err
	}); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	ops := make([]httpOp, nOpen+nClosed)
	var lats []time.Duration
	rates := make([]float64, windows)
	done := 0
	var elapsed time.Duration
	alloc := startAlloc()
	for w := 0; w < windows; w++ {
		// Open loop, timed from each request's due time: the exact
		// counters and the fixed-rate latency in the notes.
		base := w * perWindow
		openLoop(perWindow, fleetRate, serveSenders, func(i int, due time.Time) {
			start := time.Now()
			resp, err := call(base + i)
			ops[base+i] = httpOp{due: due, start: start, end: time.Now(), resp: resp, err: err}
		})
		for i := base; i < base+perWindow; i++ {
			lats = append(lats, ops[i].end.Sub(ops[i].due))
		}
		// Closed loop on the next unused queries: latency and
		// throughput.
		first := nOpen + done
		n, el, err := closedLoop(serveCallers, nClosed-done, closedDur, func(_, j int) {
			start := time.Now()
			resp, err := call(first + j)
			ops[first+j] = httpOp{due: start, start: start, end: time.Now(), resp: resp, err: err}
		})
		if err != nil {
			return nil, err
		}
		rates[w] = float64(n) / el.Seconds()
		done += n
		elapsed += el
	}
	allocBytes := alloc.bytes()
	ops = ops[:nOpen+done]

	var closedLats, lags []time.Duration
	var rejected, partial, degraded, hits int
	var phases phaseTimes
	for i := range ops {
		o := &ops[i]
		r.attempted++
		if i < nOpen {
			lags = append(lags, o.start.Sub(o.due))
		} else {
			closedLats = append(closedLats, o.end.Sub(o.start))
		}
		switch {
		case o.err != nil:
			if errors.Is(o.err, client.ErrOverloaded) {
				rejected++
			}
		case o.resp.Partial:
			partial++
		case o.resp.Degraded:
			degraded++
		}
		if o.failed() {
			r.failed++
			continue
		}
		if o.resp.Cache == "hit" {
			hits++
		}
		phases.add(o.resp.Stats)
	}
	n := float64(len(ops))
	reportLatency(r, closedLats, fleetTail)
	r.set("throughput_ops", float64(done)/elapsed.Seconds())
	r.set("alloc_kb_per_op", float64(allocBytes)/n/1024)
	r.set("ok_frac", 1-float64(r.failed)/n)
	r.set("failed_frac", float64(r.failed)/n)
	r.set("server.rejected_frac", float64(rejected)/n)
	r.set("server.partial_frac", float64(partial)/n)
	r.set("server.degraded_frac", float64(degraded)/n)
	r.set("bench.generator_lag_ms", ms(mean(lags)))
	st := sys.cl.Stats()
	r.set("client.retries_per_op", float64(st.Retries)/float64(st.Calls))
	if phases.n > 0 {
		r.set("server.cache_hit_frac", float64(hits)/float64(phases.n))
	}
	phases.report(r)
	r.notef("open loop: %d queries at %g/s, latency p50 %.3f ms, p90 %.3f ms, generator lag mean %.3f ms, max %.3f ms; closed loop: %d queries by %d callers in %.2f s, per window %.1f/s",
		nOpen, fleetRate, ms(quantile(lats, 0.5)), ms(quantile(lats, 0.9)), ms(mean(lags)), ms(quantile(lags, 1)),
		done, serveCallers, elapsed.Seconds(), rates)

	// The open-loop queries are a fixed set: their work counters and
	// answers repeat exactly for a seed.
	var tot work
	var answers, works []any
	for i := 0; i < nOpen; i++ {
		if ops[i].failed() {
			answers, works = append(answers, nil), append(works, nil)
			continue
		}
		w := workOf(ops[i].resp.Stats)
		tot.add(w)
		answers = append(answers, fromClient(ops[i].resp.Groups))
		works = append(works, w)
	}
	setWork(r, tot, nOpen)
	r.notef("answers_digest %s work_digest %s (open-loop queries)", digestOf(answers), digestOf(works))

	var traced []httpOp
	if cfg.trace {
		if traced, err = traceFleet(r, sys, call, nOpen, nClosed, closedDur*windows,
			float64(done)/elapsed.Seconds(), mean(closedLats)); err != nil {
			return r, err
		}
	}

	// Verify every answer outside the timed region against a direct
	// single-node library search on the same dataset.
	refs, err := referenceSearches(ref, query, max(len(ops), nOpen+len(traced)))
	if err != nil {
		return r, err
	}
	checked := append(append([]httpOp(nil), ops...), traced...)
	for k := range checked {
		i := k
		if k >= len(ops) {
			i = nOpen + k - len(ops) // the traced phase replays the closed loop
		}
		if o := &checked[k]; o.err == nil {
			if err := sameAnswers(fromClient(o.resp.Groups), fromLibrary(refs[i].Groups)); err != nil {
				return r, wrong(fmt.Errorf("fleet-2shard query %d %v vs single-node search: %w", i, qs[i], err))
			}
		}
	}
	var fleetChecks, singleChecks int64
	for i := 0; i < nOpen; i++ {
		if ops[i].err == nil {
			fleetChecks += ops[i].resp.Stats.DistanceChecks
			singleChecks += refs[i].Stats.DistanceChecks
		}
	}
	r.set("shard.work_amplification", float64(fleetChecks)/float64(singleChecks))
	return r, nil
}

// referenceSearches runs the direct library search of queries 0..n-1
// on two goroutines.
func referenceSearches(d *dataset, query func(int) ktg.Query, n int) ([]*ktg.Result, error) {
	const workers = 2
	refs := make([]*ktg.Result, n)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				res, err := d.nw.Search(query(i), ktg.SearchOptions{Index: d.idx})
				if err != nil {
					errs[w] = fmt.Errorf("query %d: reference search: %w", i, err)
					return
				}
				refs[i] = res
			}
		}(w)
	}
	wg.Wait()
	return refs, errors.Join(errs...)
}

// traceFleet replays the closed-loop queries on empty caches with the
// handler taps and the program's trace store on, and reports self times
// per layer.
func traceFleet(r *report, sys *system, call func(int) (*client.Response, error),
	nOpen, nClosed int, dur time.Duration, untracedTput float64, untracedMean time.Duration) ([]httpOp, error) {
	if _, err := sys.cl.InvalidateCache(context.Background()); err != nil {
		return nil, fmt.Errorf("invalidate cache before the traced phase: %w", err)
	}
	ops := make([]httpOp, nClosed)
	rec := startRecording(sys.taps...)
	done, elapsed, err := closedLoop(serveCallers, nClosed, dur, func(_, j int) {
		start := time.Now()
		resp, err := call(nOpen + j)
		ops[j] = httpOp{due: start, start: start, end: time.Now(), resp: resp, err: err}
	})
	rec.stop()
	if err != nil {
		return nil, err
	}
	ops = ops[:done]

	// The shards of one query run at once; each gets an equal part of the
	// time they overlap, so that the layers still sum to the op's wall
	// time. The coordinator's tap is the last.
	var roots []*span
	var handlerDur, handlerSelf, queueWait, slowest time.Duration
	var skew float64
	handlers, scattered := 0, 0
	for i := range ops {
		o := &ops[i]
		if o.err != nil {
			continue
		}
		root := &span{layer: layerBench, start: o.start, end: o.end}
		cl := root.add(layerClient, o.start, o.end)
		trace := rec.store.Get(o.resp.TraceID)
		shardTaps := sys.taps[:len(sys.taps)-1]
		for _, p := range handlerSpans(cl, layerCoord, sys.taps[len(sys.taps)-1], o.resp.TraceID) {
			var hs []*span
			for _, tap := range shardTaps {
				hs = append(hs, handlerSpans(p, layerServer, tap, o.resp.TraceID)...)
			}
			attachServerSpans(hs, trace)
			var maxD, sumD time.Duration
			for _, h := range hs {
				maxD = max(maxD, h.dur())
				sumD += h.dur()
				handlerSelf += h.self()
				for _, q := range h.find(layerQueue) {
					queueWait += q.dur()
				}
			}
			handlers += len(hs)
			handlerDur += sumD
			if len(hs) > 0 {
				shareOverlap(hs)
				slowest += maxD
				skew += float64(maxD) / (float64(sumD) / float64(len(hs)))
				scattered++
			}
		}
		roots = append(roots, root)
	}
	t := newSelfTable(roots)
	t.print(r, "fleet-2shard")
	if handlers > 0 {
		r.set("server.handler_ms", ms(handlerDur)/float64(handlers))
		r.set("server.self_ms", ms(handlerSelf)/float64(handlers))
		r.set("server.queue_wait_ms", ms(queueWait)/float64(handlers))
	}
	if scattered > 0 {
		r.set("shard.coord_self_ms", ms(t.meanSelf(layerCoord)))
		r.set("shard.slowest_shard_ms", ms(slowest)/float64(scattered))
		r.set("shard.skew", skew/float64(scattered))
	}
	r.set("client.overhead_ms", ms(t.meanSelf(layerClient)))
	r.set("core.explore_self_ms", ms(t.meanSelf(layerExplore)))
	r.notef("  %d of %d traced ops joined to a stored trace", len(roots), len(ops))
	finishTrace(r, t, float64(done)/elapsed.Seconds(), untracedTput, untracedMean)
	return ops, nil
}
