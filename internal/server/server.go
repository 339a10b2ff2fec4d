// Package server implements the KTG query service: an HTTP/JSON API
// over the public ktg search surface with admission control (bounded
// worker pool + bounded wait queue), an LRU result cache with
// singleflight deduplication, per-request deadlines propagated into the
// search core as context cancellation, and graceful drain. All metrics
// land on the shared obs registry, so the standard -debug-addr surface
// and the server's own /metrics route expose them identically.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"ktg"
	"ktg/internal/obs"
)

const (
	kindQuery   = "query"
	kindDiverse = "diverse"
	kindPartial = "partial"
)

// Config tunes a Server. The zero value is usable: every field has a
// sensible default applied by New.
type Config struct {
	// Workers caps concurrently running searches (default: GOMAXPROCS).
	Workers int
	// QueueDepth caps requests waiting for a worker; beyond it requests
	// are rejected with 429 (default: 2×Workers). Negative means no
	// queue: reject as soon as all workers are busy.
	QueueDepth int
	// CacheSize caps cached complete results (default 256; negative
	// disables caching).
	CacheSize int
	// DefaultTimeout applies when a request carries no timeout_ms
	// (default 30s). MaxTimeout is the ceiling any request can ask for
	// (default 2m); larger requests are clamped, not rejected.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxKeywords / MaxGroupSize / MaxTopN bound request shape
	// (defaults 64 / 16 / 100).
	MaxKeywords  int
	MaxGroupSize int
	MaxTopN      int
	// DegradeQueueWait is the graceful-degradation threshold: an exact
	// /v1/query search that waited at least this long for a worker slot
	// (or whose wait consumed half its deadline) runs the greedy
	// algorithm instead and is answered with "degraded": true. Zero
	// applies the default (500ms); negative disables degradation.
	DegradeQueueWait time.Duration
	// Logger receives request logs; nil uses slog.Default.
	Logger *slog.Logger
	// Recorder captures completed /v1 requests for the flight-recorder
	// debug endpoints (/debug/requests, /debug/requests/slow,
	// /debug/inflight). nil creates a private recorder with default
	// sizing; ktgserver passes one sized by -flight-recorder /
	// -slow-query-ms and installs it as the obs default so the
	// -debug-addr surface serves the same data.
	Recorder *obs.FlightRecorder
	// TraceStore retains completed request traces (tail-sampled) for
	// the /debug/traces endpoints. nil falls back to the process-wide
	// obs.DefaultTraceStore, which stores nothing until installed —
	// trace IDs still propagate either way.
	TraceStore *obs.TraceStore
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 2 * c.Workers
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 0
	}
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.MaxKeywords <= 0 {
		c.MaxKeywords = 64
	}
	if c.MaxGroupSize <= 0 {
		c.MaxGroupSize = 16
	}
	if c.MaxTopN <= 0 {
		c.MaxTopN = 100
	}
	if c.DegradeQueueWait == 0 {
		c.DegradeQueueWait = 500 * time.Millisecond
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.Recorder == nil {
		c.Recorder = obs.NewFlightRecorder(0, 0, 0, 0)
	}
	return c
}

// Dataset is one queryable network. Index is optional; when set it must
// be safe for concurrent readers (NL, NLRNL without mutation, PLL —
// see ktg.DistanceIndex). A nil Index falls back to a per-search BFS
// oracle.
//
// Live makes the dataset mutable: when set, every search resolves the
// live network's current epoch (an immutable network + index pair) at
// admission and POST /v1/edges publishes new epochs, while Network and
// Index describe the base (epoch 1) state and keep serving metadata.
// Live datasets stamp their epoch into every response.
type Dataset struct {
	Name    string
	Network *ktg.Network
	Index   ktg.DistanceIndex
	Live    *ktg.LiveNetwork
}

// view resolves the network + index + epoch a search should run on: the
// live network's current epoch for mutable datasets, the static pair
// (epoch 0, not stamped on responses) otherwise.
func (ds *Dataset) view() (*ktg.Network, ktg.DistanceIndex, uint64) {
	if ds.Live == nil {
		return ds.Network, ds.Index, 0
	}
	v := ds.Live.View()
	return v.Network, v.Index, v.Epoch
}

// Server is the KTG query service. Create one with New, mount
// Handler(), and call Drain before shutting the http.Server down.
type Server struct {
	cfg      Config
	datasets map[string]*Dataset
	names    []string
	adm      *admitter
	cache    *resultCache
	recorder *obs.FlightRecorder
	draining atomic.Bool
}

// New builds a Server over the given datasets.
func New(cfg Config, datasets ...*Dataset) (*Server, error) {
	if len(datasets) == 0 {
		return nil, fmt.Errorf("server: at least one dataset is required")
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		datasets: make(map[string]*Dataset, len(datasets)),
		adm:      newAdmitter(cfg.Workers, cfg.QueueDepth),
		cache:    newResultCache(cfg.CacheSize),
		recorder: cfg.Recorder,
	}
	for _, ds := range datasets {
		if ds.Name == "" || ds.Network == nil {
			return nil, fmt.Errorf("server: dataset needs a name and a network")
		}
		if _, dup := s.datasets[ds.Name]; dup {
			return nil, fmt.Errorf("server: duplicate dataset %q", ds.Name)
		}
		s.datasets[ds.Name] = ds
		s.names = append(s.names, ds.Name)
	}
	sort.Strings(s.names)
	return s, nil
}

// Drain flips the server into shutdown mode: /readyz starts failing and
// new query requests are rejected with 503 so load balancers move on,
// while already-admitted searches run to completion. Call it before
// http.Server.Shutdown.
func (s *Server) Drain() { s.draining.Store(true) }

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Workers and QueueDepth report the effective admission limits after
// defaulting (Config zero values mean "auto").
func (s *Server) Workers() int    { return s.cfg.Workers }
func (s *Server) QueueDepth() int { return s.cfg.QueueDepth }

// traceStore resolves the store serving /debug/traces: the configured
// one, else the process default (resolved per request, mirroring the
// DefaultRecorder pattern; may be nil).
func (s *Server) traceStore() *obs.TraceStore {
	if s.cfg.TraceStore != nil {
		return s.cfg.TraceStore
	}
	return obs.DefaultTraceStore()
}

// Handler returns the server's route tree:
//
//	POST /v1/query             exact / greedy KTG search
//	POST /v1/query/partial     one frontier slice of a scattered search (shard workers)
//	POST /v1/diverse           DKTG-Greedy diverse search
//	POST /v1/edges             apply an edge insert/delete batch (live datasets)
//	GET  /v1/datasets          served datasets and their stats
//	POST /v1/cache/invalidate  drop all cached results
//	GET  /healthz              liveness (always 200 while the process runs)
//	GET  /readyz               readiness (503 once draining)
//	GET  /metrics              the shared obs registry
//	GET  /debug/requests       flight recorder: recent completed requests
//	GET  /debug/requests/slow  slow-query log (top-K by latency)
//	GET  /debug/inflight       currently executing requests
//	GET  /debug/search         in-flight searches with live progress snapshots
//	GET  /debug/traces         tail-sampled trace store listing
//	GET  /debug/traces/{id}    one trace (JSON; ?format=waterfall for ASCII)
//
// Every request is assigned a request ID (inbound X-Request-Id honored
// when well-formed, generated otherwise) that is echoed in the
// X-Request-Id response header and stamped on every log line the
// request produces. /v1/* requests additionally join the caller's W3C
// trace (traceparent header) or start their own; the trace ID is echoed
// as X-Trace-Id.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query", s.handleQuery)
	mux.HandleFunc("POST /v1/query/partial", s.handlePartial)
	mux.HandleFunc("POST /v1/diverse", s.handleDiverse)
	mux.HandleFunc("POST /v1/edges", s.handleEdges)
	mux.HandleFunc("GET /v1/datasets", s.handleDatasets)
	mux.HandleFunc("POST /v1/cache/invalidate", s.handleInvalidate)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		if s.draining.Load() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
			return
		}
		body := map[string]any{"status": "ready"}
		// Durable datasets stamp their recovery outcome so an operator
		// (or the restart smoke) can confirm from the readiness probe
		// alone that the pre-crash epoch was republished.
		wal := make(map[string]*ktg.RecoveryStats)
		for _, name := range s.names {
			if ds := s.datasets[name]; ds.Live != nil && ds.Live.Recovery() != nil {
				wal[name] = ds.Live.Recovery()
			}
		}
		if len(wal) > 0 {
			body["wal"] = wal
		}
		writeJSON(w, http.StatusOK, body)
	})
	mux.Handle("GET /metrics", obs.Default().Handler())
	mux.Handle("GET /debug/requests", s.recorder.RecentHandler())
	mux.Handle("GET /debug/requests/slow", s.recorder.SlowHandler())
	mux.Handle("GET /debug/inflight", s.recorder.InflightHandler())
	mux.HandleFunc("GET /debug/search", func(w http.ResponseWriter, r *http.Request) {
		obs.DefaultSearchTable().Handler().ServeHTTP(w, r)
	})
	mux.HandleFunc("GET /debug/traces", func(w http.ResponseWriter, r *http.Request) {
		s.traceStore().HandleTraces(w, r)
	})
	mux.HandleFunc("GET /debug/traces/{id}", func(w http.ResponseWriter, r *http.Request) {
		ts := s.traceStore()
		if ts == nil {
			http.Error(w, "trace store disabled", http.StatusNotFound)
			return
		}
		ts.HandleTraceByID(w, r)
	})
	// Request scoping sits outermost so the recovery layer's panic log
	// already carries the request_id attribute.
	return s.withRequestScope(s.withRecovery(mux))
}

// withRecovery converts handler panics into 500s so one poisoned
// request cannot take the whole process down. Search panics are already
// recovered inside runSearch (they must be, or singleflight waiters
// would hang on a leader that never completes); this outer layer covers
// everything else — encoding, auxiliary routes, future handlers.
// http.ErrAbortHandler is re-raised: it is net/http's own control flow
// for deliberately aborted responses, not a failure.
func (s *Server) withRecovery(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler {
				panic(rec)
			}
			mPanics.Inc()
			s.reqLogger(r.Context()).Error("request handler panicked",
				"path", r.URL.Path, "panic", rec, "stack", string(debug.Stack()))
			// Best effort: if the handler already started the response the
			// extra header write is a no-op on a hijacked/committed stream.
			writeAPIError(w, &APIError{
				Status:  http.StatusInternalServerError,
				Code:    "internal_panic",
				Message: "internal error",
			})
		}()
		next.ServeHTTP(w, r)
	})
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	mQueryRequests.Inc()
	s.serveSearch(w, r, kindQuery, mQueryLatency)
}

func (s *Server) handleDiverse(w http.ResponseWriter, r *http.Request) {
	mDiverseRequests.Inc()
	s.serveSearch(w, r, kindDiverse, mDiverseLatency)
}

// serveSearch is the shared request pipeline: decode → validate →
// resolve dataset → drain check → cache/singleflight → admission →
// search → encode. Along the way it fills the request's flight-recorder
// record (dataset, algorithm, params digest, queue wait, phase spans,
// stats, outcome) and feeds the dataset/algorithm-labeled latency and
// effort series.
func (s *Server) serveSearch(w http.ResponseWriter, r *http.Request, kind string, latency *obs.HistogramVec) {
	start := time.Now()
	rec := requestRecord(r.Context())
	if rec == nil {
		rec = &obs.RequestRecord{} // direct handler invocation in tests
	}
	dsLabel, algLabel := labelUnknown, labelUnknown
	defer func() {
		latency.With(dsLabel, algLabel).Observe(time.Since(start).Nanoseconds())
	}()

	req, aerr := decodeRequest(r, kind, limits{
		maxKeywords:  s.cfg.MaxKeywords,
		maxGroupSize: s.cfg.MaxGroupSize,
		maxTopN:      s.cfg.MaxTopN,
	})
	if aerr != nil {
		mRejectInvalid.Inc()
		writeAPIError(w, aerr)
		return
	}
	ds, ok := s.datasets[req.Dataset]
	if !ok {
		mRejectInvalid.Inc()
		writeAPIError(w, &APIError{
			Status:  http.StatusNotFound,
			Code:    "unknown_dataset",
			Message: fmt.Sprintf("unknown dataset %q (serving: %v)", req.Dataset, s.names),
		})
		return
	}
	dsLabel = ds.Name
	algLabel = req.Algorithm
	if algLabel == "" {
		algLabel = "vkc-deg"
	}
	rec.Dataset, rec.Algorithm = dsLabel, algLabel
	s.recorder.Annotate(rec.ID, dsLabel, algLabel)
	if s.draining.Load() {
		mRejectDraining.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter(true)))
		writeAPIError(w, &APIError{
			Status:  http.StatusServiceUnavailable,
			Code:    "draining",
			Message: "server is shutting down",
		})
		return
	}

	span := obs.SpanFromContext(r.Context())
	span.SetAttr("dataset", dsLabel)
	span.SetAttr("algorithm", algLabel)

	key := req.cacheKey(kind)
	rec.ParamsDigest = key[:16]

	// Explain runs bypass the result cache and the singleflight group
	// entirely: the plan must describe the execution that answered this
	// request, a cached or joined answer has no such execution, and
	// storing an explain-bearing response would leak one request's plan
	// to every later hit. The cache status says "bypass".
	if req.Explain {
		mExplainRequests.Inc()
		span.Event("cache.bypass", 0)
		resp, _, err := s.runSearch(r.Context(), req, ds, kind, rec)
		if err != nil {
			rec.Outcome, rec.Error = obs.OutcomeError, err.Error()
			s.writeError(w, r, err)
			return
		}
		switch {
		case resp.Degraded:
			rec.Outcome = obs.OutcomeDegraded
		case resp.Partial:
			rec.Outcome = obs.OutcomePartial
		default:
			rec.Outcome = obs.OutcomeOK
		}
		rec.Stats, rec.Epoch = resp.Stats, resp.Epoch
		mSearchNodesSplit.With(dsLabel, algLabel).Add(resp.Stats.Nodes)
		mSearchChecksSplit.With(dsLabel, algLabel).Add(resp.Stats.DistanceChecks)
		s.writeResponse(w, resp, "bypass")
		return
	}

	if resp, ok := s.cache.lookup(key); ok {
		mCacheHits.Inc()
		span.Event("cache.hit", 0)
		rec.Outcome, rec.Stats, rec.Epoch = obs.OutcomeCached, resp.Stats, resp.Epoch
		s.writeResponse(w, resp, "hit")
		return
	}

	leader := false
	meta := cacheMeta{dataset: ds.Name, kws: req.uniqKeywords()}
	resp, fromFlight, err := s.cache.do(r.Context(), key, meta, func() (*QueryResponse, bool, error) {
		leader = true
		return s.runSearch(r.Context(), req, ds, kind, rec)
	})
	switch {
	case err == nil && fromFlight:
		// Joined an identical in-flight search (or a store that landed
		// while we waited) — no search of our own ran.
		mCacheShared.Inc()
		span.Event("cache.shared", 0)
		rec.Outcome, rec.Stats, rec.Epoch = obs.OutcomeCached, resp.Stats, resp.Epoch
		s.writeResponse(w, resp, "shared")
	case err == nil:
		mCacheMisses.Inc()
		span.Event("cache.miss", 0)
		switch {
		case resp.Degraded:
			rec.Outcome = obs.OutcomeDegraded
		case resp.Partial:
			rec.Outcome = obs.OutcomePartial
		default:
			rec.Outcome = obs.OutcomeOK
		}
		rec.Stats = resp.Stats
		mSearchNodesSplit.With(dsLabel, algLabel).Add(resp.Stats.Nodes)
		mSearchChecksSplit.With(dsLabel, algLabel).Add(resp.Stats.DistanceChecks)
		s.writeResponse(w, resp, "miss")
	default:
		if leader {
			mCacheMisses.Inc()
		}
		rec.Outcome, rec.Error = obs.OutcomeError, err.Error()
		s.writeError(w, r, err)
	}
}

// testSearchHook, when non-nil, runs inside runSearch after admission
// and before the search core. Tests use it to inject panics and
// latency; production never sets it.
var testSearchHook func(kind string, req *QueryRequest)

// runSearch executes one admitted search. It returns the response, a
// shareable flag (true only for complete results — those are safe to
// cache and to hand to concurrent identical requests), and an error
// for outcomes that cannot produce a response at all.
//
// runSearch is the singleflight leader body, so a panic here must be
// recovered *here*: letting it unwind through cache.do would leave the
// flight's done channel forever open and hang every request that joined
// it. The recover converts the panic into a plain 500 error, and the
// deferred release (registered after acquire, so it runs first) still
// returns the worker slot.
func (s *Server) runSearch(reqCtx context.Context, req *QueryRequest, ds *Dataset, kind string, reqRec *obs.RequestRecord) (resp *QueryResponse, shareable bool, err error) {
	logger := s.reqLogger(reqCtx)
	defer func() {
		rec := recover()
		if rec == nil {
			return
		}
		mPanics.Inc()
		logger.Error("search panicked",
			"dataset", req.Dataset, "kind", kind, "panic", rec, "stack", string(debug.Stack()))
		resp, shareable = nil, false
		err = &APIError{
			Status:  http.StatusInternalServerError,
			Code:    "internal_panic",
			Message: "internal error while executing the search",
		}
	}()

	admitStart := time.Now()
	wait, err := s.adm.acquire(reqCtx)
	if err != nil {
		return nil, false, err
	}
	defer s.adm.release()
	reqRec.QueueWait = wait
	parentSpan := obs.SpanFromContext(reqCtx)
	parentSpan.AddCompletedChild("queue.wait", admitStart, wait,
		obs.Attr{Key: "wait_ns", Value: strconv.FormatInt(wait.Nanoseconds(), 10)})

	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMillis > 0 {
		timeout = time.Duration(req.TimeoutMillis) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	ctx, cancel := context.WithTimeout(reqCtx, timeout)
	defer cancel()

	// Every admitted search carries a probe: it feeds the /debug/search
	// in-flight table, the improvement-time histograms, and — when the
	// request asked — the explain block. When nobody looks, the probe
	// costs the hot path one branch and counter bump per node.
	probe := &ktg.Probe{}
	unregister := s.registerSearch(reqRec.ID, kind, ds.Name, req.Algorithm, probe)
	defer unregister()

	// The search child span wraps the whole core call; the core hangs
	// its own compile/candidates/explore children off it via ctx. The
	// probe-derived attrs put pruning efficacy (final bound, cut
	// totals, frontier coverage) on the waterfall without a separate
	// explain request.
	ctx, searchSpan := obs.StartChild(ctx, "search."+kind)
	defer func() {
		if searchSpan == nil {
			return
		}
		if err != nil {
			searchSpan.SetError(err.Error())
		}
		if resp != nil {
			searchSpan.SetAttr("algorithm", resp.Algorithm)
			searchSpan.SetAttr("nodes", strconv.FormatInt(resp.Stats.Nodes, 10))
			searchSpan.SetAttr("distance_checks", strconv.FormatInt(resp.Stats.DistanceChecks, 10))
		}
		if pe := probe.Explain(); pe != nil {
			searchSpan.SetAttr("final_threshold", strconv.Itoa(pe.FinalThresh))
			searchSpan.SetAttr("pruned", strconv.FormatInt(pe.Pruned, 10))
			searchSpan.SetAttr("filtered", strconv.FormatInt(pe.Filtered, 10))
			searchSpan.SetAttr("roots_explored", strconv.FormatInt(pe.RootsExplored, 10))
		}
		searchSpan.End()
	}()

	// Graceful degradation: a long queue wait means the server is
	// saturated — spending a full exact search per request now only
	// deepens the backlog. Downgrade exact /v1/query searches to the
	// greedy algorithm so the queue drains; the response says so via
	// "degraded": true and is never cached (a later idle server should
	// serve the exact answer).
	degradedReason := ""
	if kind == kindQuery && req.Algorithm != "greedy" && s.cfg.DegradeQueueWait > 0 {
		switch {
		case wait >= s.cfg.DegradeQueueWait:
			degradedReason = "queue_wait"
		case wait > 0 && 2*wait >= timeout:
			degradedReason = "deadline_pressure"
		}
	}

	if testSearchHook != nil {
		testSearchHook(kind, req)
	}

	// Resolve the epoch once, after admission: the network + index pair
	// is immutable, so the whole search sees one consistent topology
	// even while mutations publish later epochs concurrently.
	nw, idx, epoch := ds.view()
	reqRec.Epoch = epoch
	if epoch != 0 {
		parentSpan.SetAttr("epoch", strconv.FormatUint(epoch, 10))
	}

	q := ktg.Query{
		Keywords:  req.Keywords,
		GroupSize: req.GroupSize,
		Tenuity:   req.Tenuity,
		TopN:      req.TopN,
	}
	// The request-scoped logger makes core-level lines carry request_id.
	opts := ktg.SearchOptions{
		Algorithm: wireAlgorithms[req.Algorithm],
		Index:     idx,
		MaxNodes:  req.MaxNodes,
		Context:   ctx,
		Logger:    logger,
		Probe:     probe,
	}

	resp = &QueryResponse{Dataset: ds.Name, Algorithm: req.Algorithm, Epoch: epoch}
	if resp.Algorithm == "" {
		resp.Algorithm = "vkc-deg"
	}
	if degradedReason != "" {
		mDegraded.Inc()
		resp.Algorithm = "greedy"
		resp.Degraded = true
		resp.DegradedReason = degradedReason
		parentSpan.Event("degrade."+degradedReason, wait.Nanoseconds())
		logger.Warn("degrading exact search to greedy",
			"dataset", req.Dataset, "reason", degradedReason, "queue_wait", wait)
	}
	var res *ktg.Result
	switch {
	case kind == kindDiverse:
		gamma := 0.5
		if req.Gamma != nil {
			gamma = *req.Gamma
		}
		var dr *ktg.DiverseResult
		dr, err = nw.SearchDiverse(q, ktg.DiverseOptions{SearchOptions: opts, Gamma: gamma})
		if dr != nil {
			res = &ktg.Result{Groups: dr.Groups, Stats: dr.Stats}
			resp.Diversity = &dr.Diversity
			resp.MinQKC = &dr.MinQKC
			resp.Score = &dr.Score
		}
	case req.Algorithm == "greedy" || degradedReason != "":
		res, err = nw.SearchGreedyWith(q, opts, req.Seeds)
	default:
		res, err = nw.Search(q, opts)
	}

	if res == nil {
		// Validation failures inside the core; our own validation should
		// make this unreachable, so surface it as a 400 with the core's
		// message rather than masking it.
		return nil, false, badRequest("invalid_query", "%v", err)
	}
	reqRec.Phases = phaseRecords(res.Stats)
	if reqCtx.Err() != nil {
		// The client went away (or shutdown force-cancelled the base
		// context) mid-search: there is nobody to answer. writeError
		// counts this under ktg_server_cancelled_total.
		return nil, false, reqCtx.Err()
	}
	resp.Groups = make([]GroupJSON, 0, len(res.Groups))
	for _, g := range res.Groups {
		resp.Groups = append(resp.Groups, GroupJSON{Members: g.Members, Covered: g.Covered, QKC: g.QKC})
	}
	resp.Stats = res.Stats
	switch {
	case err == nil:
	case errors.Is(err, context.DeadlineExceeded):
		resp.Partial, resp.PartialReason = true, "deadline"
	case errors.Is(err, ktg.ErrBudgetExhausted):
		resp.Partial, resp.PartialReason = true, "budget"
	default:
		return nil, false, fmt.Errorf("search failed: %w", err)
	}
	if resp.Partial {
		mPartial.Inc()
	}
	pe := probe.Explain()
	if pe.TimeToFirstNS > 0 {
		mFirstResultNS.Observe(pe.TimeToFirstNS)
		mFinalImprovementNS.Observe(pe.TimeToFinalNS)
	}
	if req.Explain {
		pe.Algorithm = resp.Algorithm
		pe.Epoch = epoch
		resp.Explain = pe
	}
	// Partial and degraded results are request-specific compromises, not
	// the query's true answer — never cache or share them.
	return resp, !resp.Partial && !resp.Degraded, nil
}

// phaseRecords lists a search's compile, candidates and explore times
// for its flight-recorder record, skipping phases the algorithm did not
// run (greedy builds no candidate set).
func phaseRecords(st ktg.SearchStats) []obs.SpanRecord {
	var out []obs.SpanRecord
	for _, p := range [...]obs.SpanRecord{
		{Phase: obs.PhaseCompile, Duration: st.CompileTime},
		{Phase: obs.PhaseCandidates, Duration: st.CandidateTime},
		{Phase: obs.PhaseExplore, Duration: st.ExploreTime},
	} {
		if p.Duration > 0 {
			out = append(out, p)
		}
	}
	return out
}

// registerSearch puts one in-flight search on the process-wide
// /debug/search table and returns the removal func to defer. The row's
// Progress closure pulls the probe's latest snapshot only when the
// table is rendered, so registration adds nothing to the search path.
func (s *Server) registerSearch(id, kind, dataset, algorithm string, probe *ktg.Probe) func() {
	if id == "" {
		id = ktg.NewRequestID()
	}
	if algorithm == "" {
		algorithm = "vkc-deg"
	}
	endpoint := "/v1/query"
	switch kind {
	case kindDiverse:
		endpoint = "/v1/diverse"
	case kindPartial:
		endpoint = "/v1/query/partial"
	}
	return obs.DefaultSearchTable().Register(obs.SearchRow{
		ID:        id,
		Endpoint:  endpoint,
		Dataset:   dataset,
		Algorithm: algorithm,
		Progress:  func() any { return probe.Snapshot() },
	})
}

func (s *Server) handleDatasets(w http.ResponseWriter, _ *http.Request) {
	mDatasetsRequests.Inc()
	start := time.Now()
	defer func() { mDatasetsLatency.Observe(time.Since(start).Nanoseconds()) }()
	type datasetJSON struct {
		Name       string             `json:"name"`
		Vertices   int                `json:"vertices"`
		Edges      int                `json:"edges"`
		Vocabulary int                `json:"vocabulary"`
		Index      string             `json:"index"`
		Mutable    bool               `json:"mutable,omitempty"`
		Epoch      uint64             `json:"epoch,omitempty"`
		Durable    bool               `json:"durable,omitempty"`
		WAL        *ktg.RecoveryStats `json:"wal,omitempty"`
	}
	out := make([]datasetJSON, 0, len(s.names))
	for _, name := range s.names {
		ds := s.datasets[name]
		// Edge/epoch figures come from the current live view so they track
		// applied mutations rather than the boot-time snapshot.
		nw, idx, epoch := ds.view()
		d := datasetJSON{
			Name:       name,
			Vertices:   nw.NumVertices(),
			Edges:      nw.NumEdges(),
			Vocabulary: nw.VocabularySize(),
			Index:      "BFS",
			Mutable:    ds.Live != nil,
			Epoch:      epoch,
		}
		if idx != nil {
			d.Index = idx.Name()
		}
		if ds.Live != nil {
			d.Durable = ds.Live.Durable()
			d.WAL = ds.Live.Recovery()
		}
		out = append(out, d)
	}
	writeJSON(w, http.StatusOK, map[string]any{"datasets": out})
}

func (s *Server) handleInvalidate(w http.ResponseWriter, r *http.Request) {
	n := s.cache.invalidate()
	s.reqLogger(r.Context()).Info("result cache invalidated", "entries", n)
	writeJSON(w, http.StatusOK, map[string]any{"invalidated": n})
}

// writeResponse stamps the per-request cache status onto a copy of the
// (possibly shared) response and encodes it.
func (s *Server) writeResponse(w http.ResponseWriter, resp *QueryResponse, cacheStatus string) {
	out := *resp
	out.Cache = cacheStatus
	w.Header().Set("X-KTG-Cache", cacheStatus)
	writeJSON(w, http.StatusOK, &out)
}

// writeError maps pipeline errors onto HTTP statuses.
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, err error) {
	var aerr *APIError
	switch {
	case errors.As(err, &aerr):
		if aerr.Status < 500 {
			mRejectInvalid.Inc()
		}
		writeAPIError(w, aerr)
	case errors.Is(err, errOverloaded):
		mRejectOverload.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter(false)))
		writeAPIError(w, &APIError{
			Status:  http.StatusTooManyRequests,
			Code:    "overloaded",
			Message: "all workers busy and the wait queue is full; retry shortly",
		})
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The client is gone; the status code is for logs only.
		mCancelled.Inc()
		s.reqLogger(r.Context()).Info("request abandoned by client", "path", r.URL.Path)
		writeAPIError(w, &APIError{
			Status:  http.StatusServiceUnavailable,
			Code:    "client_gone",
			Message: "request context cancelled before a result was ready",
		})
	default:
		s.reqLogger(r.Context()).Error("query failed", "path", r.URL.Path, "err", err)
		writeAPIError(w, &APIError{
			Status:  http.StatusInternalServerError,
			Code:    "internal",
			Message: err.Error(),
		})
	}
}

func writeAPIError(w http.ResponseWriter, aerr *APIError) {
	writeJSON(w, aerr.Status, map[string]any{"error": aerr})
}

// WriteAPIError and WriteJSON expose the server's wire encoding (status
// mapping, {"error": {...}} envelope, indented JSON) so the shard
// coordinator answers byte-compatibly with a single-node server.
func WriteAPIError(w http.ResponseWriter, aerr *APIError) { writeAPIError(w, aerr) }

// WriteJSON encodes v exactly as the server's own handlers do.
func WriteJSON(w http.ResponseWriter, status int, v any) { writeJSON(w, status, v) }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
