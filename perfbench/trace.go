package main

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ktg"
	"ktg/internal/obs"
)

// Layers of the self-time table, in call order. Each traced op is a
// tree of spans labelled with these names.
const (
	layerBench      = "bench"           // the benchmark's own loop: unattributed
	layerClient     = "client"          // internal/client call, minus the server
	layerCoord      = "shard.coord"     // coordinator handler, minus its shards
	layerServer     = "server"          // server handler: decode, cache, encode
	layerQueue      = "server.queue"    // admission wait
	layerFacade     = "ktg"             // ktg facade around the core phases
	layerCompile    = "keywords"        // query keyword compile
	layerCandidates = "core.candidates" // initial candidate set
	layerExplore    = "core.explore"    // branch and bound, minus index calls
	layerIndex      = "index.within"    // distance index calls
	layerApply      = "live.apply"      // §V-B maintenance of the writer replica
	layerFsync      = "wal.fsync"       // WAL fsync before the ack
	layerSwap       = "live.swap"       // epoch publication
)

var layerOrder = []string{layerBench, layerClient, layerCoord, layerServer, layerQueue, layerFacade,
	layerCompile, layerCandidates, layerExplore, layerIndex, layerApply, layerFsync, layerSwap}

// span is one timed call in a traced op.
type span struct {
	layer      string
	start, end time.Time
	children   []*span
	// share scales the self times of this span and the spans below it
	// when it ran beside siblings (see shareOverlap); 0 means 1.
	share float64
}

func (s *span) add(layer string, start, end time.Time) *span {
	c := &span{layer: layer, start: start, end: end}
	s.children = append(s.children, c)
	return c
}

func (s *span) dur() time.Duration { return s.end.Sub(s.start) }

// self returns the span's duration minus the part of it its children's
// intervals cover.
func (s *span) self() time.Duration {
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(s.children))
	for _, c := range s.children {
		a, b := c.start, c.end
		if a.Before(s.start) {
			a = s.start
		}
		if b.After(s.end) {
			b = s.end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var covered time.Duration
	var curA, curB time.Time
	for i, v := range ivs {
		switch {
		case i == 0:
			curA, curB = v.a, v.b
		case v.a.After(curB):
			covered += curB.Sub(curA)
			curA, curB = v.a, v.b
		case v.b.After(curB):
			curB = v.b
		}
	}
	if len(ivs) > 0 {
		covered += curB.Sub(curA)
	}
	return s.dur() - covered
}

// addSelf adds the self time of s and of every span below it to acc,
// scaled by the spans' shares.
func (s *span) addSelf(acc map[string]time.Duration) { s.addShared(acc, 1) }

func (s *span) addShared(acc map[string]time.Duration, share float64) {
	if s.share > 0 {
		share *= s.share
	}
	acc[s.layer] += time.Duration(share * float64(s.self()))
	for _, c := range s.children {
		c.addShared(acc, share)
	}
}

// shareOverlap gives spans that ran at the same time (the shards of one
// scattered query) each an equal part of every instant they share, so
// that their self times, summed with their parent's, add up to the
// parent's wall time.
func shareOverlap(spans []*span) {
	type edge struct {
		at    time.Time
		delta int
	}
	var edges []edge
	for _, s := range spans {
		edges = append(edges, edge{s.start, 1}, edge{s.end, -1})
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].at.Before(edges[j].at) })
	for _, s := range spans {
		if s.dur() <= 0 {
			continue
		}
		var owned float64 // seconds of s, each divided by the spans running then
		active := 0
		for i, e := range edges {
			if i > 0 && active > 0 {
				a, b := edges[i-1].at, e.at
				if a.Before(s.start) {
					a = s.start
				}
				if b.After(s.end) {
					b = s.end
				}
				if b.After(a) {
					owned += b.Sub(a).Seconds() / float64(active)
				}
			}
			active += e.delta
		}
		s.share = owned / s.dur().Seconds()
	}
}

// find returns the spans of the given layer in the tree below s.
func (s *span) find(layer string) []*span {
	var out []*span
	if s.layer == layer {
		out = append(out, s)
	}
	for _, c := range s.children {
		out = append(out, c.find(layer)...)
	}
	return out
}

// selfTable sums self time per layer over the traced ops.
type selfTable struct {
	ops   int
	total time.Duration // summed op durations
	self  map[string]time.Duration
}

func newSelfTable(roots []*span) *selfTable {
	t := &selfTable{ops: len(roots), self: map[string]time.Duration{}}
	for _, r := range roots {
		t.total += r.dur()
		r.addSelf(t.self)
	}
	return t
}

// meanSelf returns the mean self time of a layer per op.
func (t *selfTable) meanSelf(layer string) time.Duration {
	if t.ops == 0 {
		return 0
	}
	return t.self[layer] / time.Duration(t.ops)
}

// attributed returns the summed self time of every layer but the
// benchmark's own, per op.
func (t *selfTable) attributed() time.Duration {
	var s time.Duration
	for l, d := range t.self {
		if l != layerBench {
			s += d
		}
	}
	if t.ops == 0 {
		return 0
	}
	return s / time.Duration(t.ops)
}

// print writes the table: mean self time per op and share of the op.
func (t *selfTable) print(r *report, title string) {
	r.notef("self time per layer (%s, %d traced ops, mean op %.3f ms):", title, t.ops, ms(t.total/time.Duration(max(t.ops, 1))))
	for _, l := range layerOrder {
		d, ok := t.self[l]
		if !ok {
			continue
		}
		share := 0.0
		if t.total > 0 {
			share = float64(d) / float64(t.total)
		}
		r.notef("  %-16s %10.4f ms  %6.2f%%", l, ms(d/time.Duration(max(t.ops, 1))), 100*share)
	}
}

// timedIndex counts the distance checks a search makes and times one
// call in withinSample, so that timing costs little more than counting;
// the time of all calls is estimated from the sampled ones. One
// instance per searching goroutine: it is not safe for concurrent use.
type timedIndex struct {
	inner   ktg.DistanceIndex
	calls   int64
	sampled time.Duration
}

const withinSample = 64

func (x *timedIndex) Within(u, v ktg.Vertex, k int) bool {
	x.calls++
	if x.calls%withinSample != 0 {
		return x.inner.Within(u, v, k)
	}
	t := time.Now()
	ok := x.inner.Within(u, v, k)
	x.sampled += time.Since(t)
	return ok
}

func (x *timedIndex) Name() string { return x.inner.Name() }

func (x *timedIndex) reset() { x.calls, x.sampled = 0, 0 }

// dur estimates the time spent in all calls since the last reset.
func (x *timedIndex) dur() time.Duration {
	n := x.calls / withinSample
	if n == 0 {
		return 0
	}
	return time.Duration(float64(x.sampled) / float64(n) * float64(x.calls))
}

// handlerCall is one request through a tapped handler.
type handlerCall struct{ start, end time.Time }

// handlerTap times every request through an http.Handler while
// recording is on, keyed by the trace ID the handler answers with.
type handlerTap struct {
	next http.Handler
	on   atomic.Bool

	mu    sync.Mutex
	calls map[string][]handlerCall
}

func newHandlerTap(next http.Handler) *handlerTap {
	return &handlerTap{next: next, calls: map[string][]handlerCall{}}
}

func (h *handlerTap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.on.Load() {
		h.next.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	h.next.ServeHTTP(w, r)
	end := time.Now()
	id := w.Header().Get("X-Trace-Id")
	h.mu.Lock()
	h.calls[id] = append(h.calls[id], handlerCall{start: start, end: end})
	h.mu.Unlock()
}

func (h *handlerTap) take(traceID string) []handlerCall {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.calls[traceID]
}

// recording turns the trace store and the handler taps on for the
// duration of a traced phase.
type recording struct {
	store *obs.TraceStore
	taps  []*handlerTap
}

func startRecording(taps ...*handlerTap) *recording {
	rec := &recording{
		store: obs.NewTraceStore(obs.TraceStoreConfig{KeptCapacity: 1 << 20, SampledCapacity: 1 << 20, SampleRate: 1}),
		taps:  taps,
	}
	obs.SetDefaultTraceStore(rec.store)
	for _, t := range taps {
		t.on.Store(true)
	}
	return rec
}

func (rec *recording) stop() {
	obs.SetDefaultTraceStore(nil)
	for _, t := range rec.taps {
		t.on.Store(false)
	}
}

// attachServerSpans hangs below each server handler call in hs what
// the program recorded inside it: admission wait, search and its core
// phases, mutation apply and swap. Each server root span of the trace
// goes to the call that contains it and started last before it, so
// that shards whose calls overlap each get only their own spans.
func attachServerSpans(hs []*span, trace *obs.StoredTrace) {
	if trace == nil {
		return
	}
	byID := make(map[string]*obs.SpanData, len(trace.Spans))
	for i := range trace.Spans {
		byID[trace.Spans[i].SpanID] = &trace.Spans[i]
	}
	owner := map[string]*span{} // server root span ID -> handler call
	for i := range trace.Spans {
		sd := &trace.Spans[i]
		if !strings.HasPrefix(sd.Name, "server ") {
			continue
		}
		var best *span
		for _, h := range hs {
			inside := !sd.Start.Before(h.start) && !sd.Start.Add(sd.Duration).After(h.end)
			if inside && (best == nil || h.start.After(best.start)) {
				best = h
			}
		}
		if best != nil {
			owner[sd.SpanID] = best
		}
	}
	// handlerOf walks up to the server fragment's root span.
	handlerOf := func(sd *obs.SpanData) *span {
		for sd != nil && !strings.HasPrefix(sd.Name, "server ") {
			sd = byID[sd.ParentID]
		}
		if sd == nil {
			return nil
		}
		return owner[sd.SpanID]
	}
	phaseLayer := map[string]string{obs.PhaseCompile: layerCompile, obs.PhaseCandidates: layerCandidates, obs.PhaseExplore: layerExplore}
	search := map[*span]*span{}
	var phases []*obs.SpanData
	for i := range trace.Spans {
		sd := &trace.Spans[i]
		h := handlerOf(sd)
		if h == nil {
			continue
		}
		end := sd.Start.Add(sd.Duration)
		switch {
		case sd.Name == "queue.wait":
			h.add(layerQueue, sd.Start, end)
		case strings.HasPrefix(sd.Name, "search."):
			search[h] = h.add(layerFacade, sd.Start, end)
		case phaseLayer[sd.Name] != "":
			phases = append(phases, sd)
		case sd.Name == "mutate.apply":
			h.add(layerApply, sd.Start, end)
		case sd.Name == "mutate.swap":
			h.add(layerSwap, sd.Start, end)
		}
	}
	for _, sd := range phases {
		if s := search[handlerOf(sd)]; s != nil {
			s.add(phaseLayer[sd.Name], sd.Start, sd.Start.Add(sd.Duration))
		}
	}
}

// handlerSpans adds one child span per tapped handler call of traceID
// under parent.
func handlerSpans(parent *span, layer string, tap *handlerTap, traceID string) []*span {
	var out []*span
	for _, c := range tap.take(traceID) {
		out = append(out, parent.add(layer, c.start, c.end))
	}
	return out
}

func fmtPct(f float64) string { return fmt.Sprintf("%.2f%%", 100*f) }
