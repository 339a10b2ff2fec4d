package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"ktg"
	"ktg/internal/client"
	"ktg/internal/obs"
	"ktg/internal/workload"
)

// serve-mixed: reads beside small edge batches on a durable live dataset.
const (
	mixedScale = 0.02
	// mixedPool is the number of distinct reads; a Zipf draw over it
	// makes a few of them hot, so the result cache hits (about a
	// quarter of the reads). The pool is large and the skew mild so
	// that the median read is a miss well inside the spread of miss
	// costs: with 48 queries at skew 1.2 about 40% of the reads hit,
	// the median sat at the cheap edge of the misses, and from seed to
	// seed it jumped by a third between two levels.
	mixedPool     = 512
	mixedZipfS    = 1.1
	mixedMutFrac  = 0.1
	mixedMaxBatch = 2
	// mixedPrefix is how many leading ops the exact counters and digests
	// cover; every run completes at least this many.
	mixedPrefix   = 300
	mixedReadTail = 0.9
	mixedMutTail  = 0.9
)

// mixedOp is one op of the seeded sequence: a read of a pool query or
// an edge batch.
type mixedOp struct {
	read  int // pool index, or -1 for a mutation
	edges []client.EdgeOp
}

// mixedResult is one executed op.
type mixedResult struct {
	start, end time.Time
	resp       *client.Response
	mresp      *client.MutationResponse
	err        error
	fsync      time.Duration // WAL fsync time during the op (traced phase)
}

func (o *mixedResult) failed() bool {
	return o.err != nil || (o.resp != nil && (o.resp.Partial || o.resp.Degraded))
}

// mixedSequence draws n ops: reads from the Zipf-skewed pool, and edge
// batches that are each effective on the graph as the earlier batches
// left it. It also returns warm-up reads, none of them in the pool.
func mixedSequence(g *workload.Generator, mut *workload.Mutator, seed int64, n int) (pool, warm [][]string, ops []mixedOp, err error) {
	qs, err := distinctQueries(g, mixedPool+warmups, serveKeywords)
	if err != nil {
		return nil, nil, nil, err
	}
	pool, warm = qs[:mixedPool], qs[mixedPool:]
	r := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(r, mixedZipfS, 1, mixedPool-1)
	ops = make([]mixedOp, n)
	for i := range ops {
		if r.Float64() >= mixedMutFrac {
			ops[i] = mixedOp{read: int(z.Uint64())}
			continue
		}
		batch := mut.Batch(1+r.Intn(mixedMaxBatch), 0.5)
		edges := make([]client.EdgeOp, len(batch))
		for j, op := range batch {
			name := "delete"
			if op.Insert {
				name = "insert"
			}
			edges[j] = client.EdgeOp{Op: name, U: int64(op.U), V: int64(op.V)}
		}
		ops[i] = mixedOp{read: -1, edges: edges}
	}
	return pool, warm, ops, nil
}

func runServeMixed(cfg config) (*report, error) {
	// The client is serial, so a second CPU would only add cross-CPU
	// wakeups to every op, and on a shared host their cost varies from
	// run to run far more than the ops themselves.
	runtime.GOMAXPROCS(1)
	r := newReport()
	sys, err := setUpMeasured(r, mutable, mixedScale, cfg.work, cfg.trace, cfg.seed)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	ds, g, err := queryGen(mixedScale, cfg.seed)
	if err != nil {
		return nil, err
	}
	// The sequence is far longer than a run can reach.
	pool, warm, seq, err := mixedSequence(g, workload.NewMutator(ds.Graph, cfg.seed), cfg.seed, int(cfg.seconds.Seconds()*5000))
	if err != nil {
		return nil, err
	}
	nv := float64(sys.data[0].nw.NumVertices())

	phase := cfg.seconds
	if cfg.trace {
		phase /= 2
	}
	if err := warmMixed(sys.cl, warm); err != nil {
		return nil, err
	}
	walBefore := obs.Default().Snapshot()
	alloc := startAlloc()
	res, elapsed, err := runMixed(sys.cl, pool, seq, phase, false)
	allocBytes := alloc.bytes()
	if err != nil {
		return nil, err
	}
	walAfter := obs.Default().Snapshot()
	if len(res) < mixedPrefix {
		return nil, fmt.Errorf("only %d ops completed, the counters need %d", len(res), mixedPrefix)
	}

	var reads, muts, lats []time.Duration
	var readsOK, rejected, partial, degraded, mutsOK int
	for i := range res {
		o := &res[i]
		r.attempted++
		switch {
		case o.err != nil:
			if errors.Is(o.err, client.ErrOverloaded) {
				rejected++
			}
		case o.resp != nil && o.resp.Partial:
			partial++
		case o.resp != nil && o.resp.Degraded:
			degraded++
		}
		if o.failed() {
			r.failed++
			continue
		}
		lats = append(lats, o.end.Sub(o.start))
		if o.mresp != nil {
			muts = append(muts, o.end.Sub(o.start))
			mutsOK++
		} else {
			reads = append(reads, o.end.Sub(o.start))
			readsOK++
		}
	}
	n := float64(len(res))
	reportLatency(r, reads, mixedReadTail)
	r.set("throughput_ops", float64(len(lats))/elapsed.Seconds())
	r.set("alloc_kb_per_op", float64(allocBytes)/n/1024)
	r.set("ok_frac", 1-float64(r.failed)/n)
	r.set("failed_frac", float64(r.failed)/n)
	r.set("server.rejected_frac", float64(rejected)/n)
	r.set("server.partial_frac", float64(partial)/n)
	r.set("server.degraded_frac", float64(degraded)/n)
	tail := mixedMutTail
	if beyond(len(muts), tail) < 10 {
		tail = tailQuantile(len(muts))
	}
	r.set("mutation_p50_ms", ms(quantile(muts, 0.5)))
	r.set("mutation_tail_ms", ms(quantile(muts, tail)))
	r.notef("mutations: %d acked, p50 %.3f ms, tail p%g %.3f ms; %d ops in %.2f s",
		len(muts), ms(quantile(muts, 0.5)), 100*tail, ms(quantile(muts, tail)), len(res), elapsed.Seconds())
	st := sys.cl.Stats()
	r.set("client.retries_per_op", float64(st.Retries)/float64(st.Calls))
	delta := func(name string) float64 { return counter(walAfter, name) - counter(walBefore, name) }
	if mutsOK > 0 {
		fsyncs := histCount(walAfter, "ktg_wal_fsync_latency_ns") - histCount(walBefore, "ktg_wal_fsync_latency_ns")
		fsyncNS := histSum(walAfter, "ktg_wal_fsync_latency_ns") - histSum(walBefore, "ktg_wal_fsync_latency_ns")
		if fsyncs > 0 {
			r.set("wal.fsync_ms", fsyncNS/fsyncs/1e6)
		}
		r.set("wal.fsyncs_per_mutation", fsyncs/float64(mutsOK))
		r.set("wal.bytes_per_mutation", delta("ktg_wal_append_bytes_total")/float64(mutsOK))
	}

	// Exact counters and digests over the fixed prefix.
	var tot work
	var phases phaseTimes
	var misses, prefixReads, prefixHits, prefixMuts int
	var affected, invalidated float64
	var answers, works []any
	var hitLat, missLat []time.Duration
	for i := range res {
		o := &res[i]
		if o.failed() {
			if i < mixedPrefix {
				answers, works = append(answers, nil), append(works, nil)
			}
			continue
		}
		if o.resp != nil {
			if o.resp.Cache == "hit" {
				hitLat = append(hitLat, o.end.Sub(o.start))
			} else {
				missLat = append(missLat, o.end.Sub(o.start))
			}
		}
		if i >= mixedPrefix {
			continue
		}
		if o.mresp != nil {
			prefixMuts++
			affected += float64(o.mresp.AffectedVertices) / nv
			invalidated += float64(o.mresp.CacheInvalidated)
			answers = append(answers, []any{o.mresp.Epoch, o.mresp.Applied})
			works = append(works, []any{o.mresp.AffectedVertices, o.mresp.CacheInvalidated, o.mresp.CacheFlushed})
			continue
		}
		prefixReads++
		if o.resp.Cache == "hit" {
			prefixHits++
		} else {
			misses++
			tot.add(workOf(o.resp.Stats))
			phases.add(o.resp.Stats)
		}
		answers = append(answers, []any{o.resp.Epoch, fromClient(o.resp.Groups)})
		works = append(works, []any{o.resp.Cache, workOf(o.resp.Stats)})
	}
	setWork(r, tot, misses)
	phases.report(r)
	if prefixReads > 0 {
		r.set("server.cache_hit_frac", float64(prefixHits)/float64(prefixReads))
	}
	if prefixMuts > 0 {
		r.set("live.affected_frac", affected/float64(prefixMuts))
		r.set("live.cache_invalidated_per_mutation", invalidated/float64(prefixMuts))
	}
	r.notef("reads: %d (cache hit p50 %.3f ms over %d, miss p50 %.3f ms over %d)",
		readsOK, ms(quantile(hitLat, 0.5)), len(hitLat), ms(quantile(missLat, 0.5)), len(missLat))
	r.notef("answers_digest %s work_digest %s (first %d ops: answers and epochs; cache outcomes, search work and mutation effects)",
		digestOf(answers), digestOf(works), mixedPrefix)

	var traced []mixedResult
	if cfg.trace {
		if traced, err = traceMixed(r, cfg, pool, warm, seq, phase, n/elapsed.Seconds(), mean(lats)); err != nil {
			return r, err
		}
	}
	if err := verifyMixed(pool, seq, res, traced); err != nil {
		return r, err
	}
	return r, nil
}

// warmMixed reads the warm-up queries, untimed.
func warmMixed(cl *client.Client, warm [][]string) error {
	q := serveQuery
	if err := warmUp(1, len(warm), func(i int) error {
		_, err := cl.Query(context.Background(), &client.Request{
			Dataset: preset, Keywords: warm[i], GroupSize: q.GroupSize, Tenuity: q.Tenuity, TopN: q.TopN,
		})
		return err
	}); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return nil
}

// runMixed runs the op sequence serially from its start until d has
// elapsed. With traced set it also reads the WAL fsync time of each
// mutation from the metrics registry, between ops.
func runMixed(cl *client.Client, pool [][]string, seq []mixedOp, d time.Duration, traced bool) ([]mixedResult, time.Duration, error) {
	ctx := context.Background()
	q := serveQuery
	res := make([]mixedResult, 0, len(seq))
	start := time.Now()
	deadline := start.Add(d)
	for i := 0; i < len(seq) && time.Now().Before(deadline); i++ {
		op := seq[i]
		var before map[string]any
		if traced && op.read < 0 {
			before = obs.Default().Snapshot()
		}
		o := mixedResult{start: time.Now()}
		if op.read >= 0 {
			o.resp, o.err = cl.Query(ctx, &client.Request{
				Dataset: preset, Keywords: pool[op.read], GroupSize: q.GroupSize, Tenuity: q.Tenuity, TopN: q.TopN,
			})
		} else {
			o.mresp, o.err = cl.MutateEdges(ctx, &client.MutationRequest{Dataset: preset, Edges: op.edges})
		}
		o.end = time.Now()
		if before != nil {
			after := obs.Default().Snapshot()
			o.fsync = time.Duration(histSum(after, "ktg_wal_fsync_latency_ns") - histSum(before, "ktg_wal_fsync_latency_ns"))
		}
		res = append(res, o)
	}
	if len(res) == len(seq) {
		return nil, 0, fmt.Errorf("all %d ops ran before the %v deadline; the workload needs more inputs", len(seq), d)
	}
	return res, time.Since(start), nil
}

// traceMixed replays the op sequence from its start on a freshly set-up
// system with recording on, and reports self times per layer.
func traceMixed(r *report, cfg config, pool, warm [][]string, seq []mixedOp, d time.Duration,
	untracedTput float64, untracedMean time.Duration) ([]mixedResult, error) {
	sys, err := setUp(mutable, mixedScale, cfg.work, true, cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("traced setup: %w", err)
	}
	defer sys.close()
	if err := warmMixed(sys.cl, warm); err != nil {
		return nil, err
	}
	rec := startRecording(sys.taps...)
	res, elapsed, err := runMixed(sys.cl, pool, seq, d, true)
	rec.stop()
	if err != nil {
		return nil, err
	}

	var roots []*span
	var applies, swaps []time.Duration
	var handlerDur time.Duration
	handlers := 0
	for i := range res {
		o := &res[i]
		if o.err != nil {
			continue
		}
		traceID := ""
		if o.resp != nil {
			traceID = o.resp.TraceID
		} else {
			traceID = o.mresp.TraceID
		}
		root := &span{layer: layerBench, start: o.start, end: o.end}
		cl := root.add(layerClient, o.start, o.end)
		hs := handlerSpans(cl, layerServer, sys.taps[0], traceID)
		attachServerSpans(hs, rec.store.Get(traceID))
		for _, h := range hs {
			handlers++
			handlerDur += h.dur()
			if o.mresp == nil {
				continue
			}
			// The WAL fsync runs between apply and swap; the program
			// records apply and swap only, so the fsync is laid after
			// the apply span and the swap after the fsync.
			for _, a := range h.find(layerApply) {
				applies = append(applies, a.dur())
				f := h.add(layerFsync, a.end, a.end.Add(o.fsync))
				for _, s := range h.find(layerSwap) {
					swaps = append(swaps, s.dur())
					s.start, s.end = f.end, f.end.Add(s.dur())
				}
			}
		}
		roots = append(roots, root)
	}
	t := newSelfTable(roots)
	t.print(r, "serve-mixed")
	if handlers > 0 {
		r.set("server.handler_ms", ms(handlerDur)/float64(handlers))
		r.set("server.self_ms", ms(t.self[layerServer])/float64(handlers))
		r.set("server.queue_wait_ms", ms(t.self[layerQueue])/float64(handlers))
	}
	r.set("client.overhead_ms", ms(t.meanSelf(layerClient)))
	r.set("core.explore_self_ms", ms(t.meanSelf(layerExplore)))
	r.set("live.apply_ms", ms(mean(applies)))
	r.set("live.swap_ms", ms(mean(swaps)))
	finishTrace(r, t, float64(len(res))/elapsed.Seconds(), untracedTput, untracedMean)
	return res, nil
}

// verifyMixed replays the op sequence on a fresh in-memory live network
// and checks every acked mutation's effect and every read against a
// direct search on the view of the epoch the response names.
func verifyMixed(pool [][]string, seq []mixedOp, runs ...[]mixedResult) error {
	nw, err := ktg.GeneratePreset(preset, mixedScale)
	if err != nil {
		return err
	}
	idx, err := nw.BuildNLRNL()
	if err != nil {
		return err
	}
	ln, err := ktg.NewLiveNetwork(nw, idx)
	if err != nil {
		return err
	}
	n := 0
	for _, run := range runs {
		n = max(n, len(run))
	}
	type key struct {
		epoch uint64
		read  int
	}
	answers := map[key][]answer{}
	for i := 0; i < n; i++ {
		op := seq[i]
		if op.read < 0 {
			edges := make([]ktg.EdgeOp, len(op.edges))
			for j, e := range op.edges {
				edges[j] = ktg.EdgeOp{Insert: e.Op == "insert", U: ktg.Vertex(e.U), V: ktg.Vertex(e.V)}
			}
			want, err := ln.ApplyEdges(edges)
			if err != nil {
				return fmt.Errorf("op %d: replaying the edge batch: %w", i, err)
			}
			for _, run := range runs {
				if i >= len(run) || run[i].err != nil {
					continue
				}
				got := run[i].mresp
				if got.Epoch != want.Epoch || got.Applied != want.Applied || got.AffectedVertices != len(want.AffectedVertices) {
					return wrong(fmt.Errorf("op %d: mutation acked epoch %d applied %d affected %d, replay gives %d, %d, %d",
						i, got.Epoch, got.Applied, got.AffectedVertices, want.Epoch, want.Applied, len(want.AffectedVertices)))
				}
			}
			continue
		}
		view := ln.View()
		for _, run := range runs {
			if i >= len(run) || run[i].failed() {
				continue
			}
			got := run[i].resp
			k := key{got.Epoch, op.read}
			want, ok := answers[k]
			if !ok {
				if got.Epoch != view.Epoch {
					return wrong(fmt.Errorf("op %d: read names epoch %d, which no earlier read computed; the replay is at %d", i, got.Epoch, view.Epoch))
				}
				q := serveQuery
				q.Keywords = pool[op.read]
				res, err := view.Network.Search(q, ktg.SearchOptions{Index: view.Index})
				if err != nil {
					return fmt.Errorf("op %d: reference search: %w", i, err)
				}
				want = fromLibrary(res.Groups)
				answers[k] = want
			}
			if err := sameAnswers(fromClient(got.Groups), want); err != nil {
				return wrong(fmt.Errorf("op %d: read at epoch %d vs direct search: %w", i, got.Epoch, err))
			}
		}
	}
	return nil
}

// counter, histCount and histSum read one metric from a registry
// snapshot (0 when absent).
func counter(snap map[string]any, name string) float64 {
	return toFloat(snap[name])
}

func histCount(snap map[string]any, name string) float64 {
	h, _ := snap[name].(map[string]any)
	return toFloat(h["count"])
}

func histSum(snap map[string]any, name string) float64 {
	h, _ := snap[name].(map[string]any)
	return toFloat(h["sum"])
}

func toFloat(v any) float64 {
	n, _ := v.(int64) // the registry's counters and histograms hold int64
	return float64(n)
}
