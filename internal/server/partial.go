package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"

	"ktg"
	"ktg/internal/obs"
)

// PartialOfferJSON is one merge-stream offer on the wire: the group plus
// its (root_pos, seq) position in the deterministic exploration order
// that the coordinator's merge replays.
type PartialOfferJSON struct {
	Members  []ktg.Vertex `json:"members"`
	Covered  []string     `json:"covered"`
	QKC      float64      `json:"qkc"`
	Coverage int          `json:"coverage"`
	RootPos  int          `json:"root_pos"`
	Seq      int          `json:"seq"`
}

// PartialResponse is the JSON body of POST /v1/query/partial: one
// shard's mergeable slice of a scattered search. Partial mirrors the
// /v1/query contract (deadline or budget hit); a partial slice makes
// any merge over it inexact, which the coordinator must surface.
type PartialResponse struct {
	Dataset      string             `json:"dataset"`
	Algorithm    string             `json:"algorithm"`
	SliceIndex   int                `json:"slice_index"`
	SliceCount   int                `json:"slice_count"`
	FrontierSize int                `json:"frontier_size"`
	QueryWidth   int                `json:"query_width"`
	Best         int                `json:"best"`
	Threshold    int                `json:"threshold"`
	Offers       []PartialOfferJSON `json:"offers"`
	// Groups is the shard-local top-N view (diagnostic; merges replay
	// Offers instead).
	Groups        []GroupJSON     `json:"groups"`
	Partial       bool            `json:"partial,omitempty"`
	PartialReason string          `json:"partial_reason,omitempty"`
	Stats         ktg.SearchStats `json:"stats"`
	// Explain is this slice's structured explain plan, present only when
	// the request set "explain": true. The coordinator merges the
	// per-shard plans into one (ktg.MergeExplains) before answering.
	Explain *ktg.Explain `json:"explain,omitempty"`
	// Epoch is the dataset epoch the slice was computed on (mutable
	// datasets only). The coordinator refuses to merge slices from
	// different epochs — a cross-epoch merge would mix two topologies
	// into an answer true of neither.
	Epoch uint64 `json:"epoch,omitempty"`
}

// handlePartial serves POST /v1/query/partial, the shard-worker side of
// scatter-gather: the same validation, admission control, deadlines,
// tracing, and metrics as /v1/query, but executing only the assigned
// frontier slice. Responses bypass the result cache and singleflight —
// slice results are coordinator-internal building blocks, and caching a
// slice would let one stale shard poison every merged answer — and
// never degrade to greedy, which would silently break merge exactness;
// under load the endpoint sheds with 429 like any other search.
func (s *Server) handlePartial(w http.ResponseWriter, r *http.Request) {
	mPartialRequests.Inc()
	start := time.Now()
	rec := requestRecord(r.Context())
	if rec == nil {
		rec = &obs.RequestRecord{} // direct handler invocation in tests
	}
	dsLabel, algLabel := labelUnknown, labelUnknown
	defer func() {
		mPartialLatency.With(dsLabel, algLabel).Observe(time.Since(start).Nanoseconds())
	}()

	req, aerr := decodeRequest(r, kindPartial, limits{
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
	span.SetAttr("slice", fmt.Sprintf("%d/%d", req.SliceIndex, req.SliceCount))

	resp, err := s.runPartial(r.Context(), req, ds, rec)
	if err != nil {
		rec.Outcome, rec.Error = obs.OutcomeError, err.Error()
		s.writeError(w, r, err)
		return
	}
	if resp.Partial {
		rec.Outcome = obs.OutcomePartial
	} else {
		rec.Outcome = obs.OutcomeOK
	}
	rec.Stats = resp.Stats
	mSearchNodesSplit.With(dsLabel, algLabel).Add(resp.Stats.Nodes)
	mSearchChecksSplit.With(dsLabel, algLabel).Add(resp.Stats.DistanceChecks)
	mPartialOffers.Add(int64(len(resp.Offers)))
	writeJSON(w, http.StatusOK, resp)
}

// runPartial executes one admitted partial search, mirroring runSearch's
// panic containment, admission, deadline, and tracing behavior.
func (s *Server) runPartial(reqCtx context.Context, req *QueryRequest, ds *Dataset, reqRec *obs.RequestRecord) (resp *PartialResponse, err error) {
	logger := s.reqLogger(reqCtx)
	defer func() {
		rec := recover()
		if rec == nil {
			return
		}
		mPanics.Inc()
		logger.Error("partial search panicked",
			"dataset", req.Dataset, "panic", rec, "stack", string(debug.Stack()))
		resp = nil
		err = &APIError{
			Status:  http.StatusInternalServerError,
			Code:    "internal_panic",
			Message: "internal error while executing the partial search",
		}
	}()

	admitStart := time.Now()
	wait, err := s.adm.acquire(reqCtx)
	if err != nil {
		return nil, err
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

	probe := &ktg.Probe{}
	unregister := s.registerSearch(reqRec.ID, kindPartial, ds.Name, req.Algorithm, probe)
	defer unregister()

	ctx, searchSpan := obs.StartChild(ctx, "search.partial")
	defer func() {
		if searchSpan == nil {
			return
		}
		if err != nil {
			searchSpan.SetError(err.Error())
		}
		if resp != nil {
			searchSpan.SetAttr("offers", strconv.Itoa(len(resp.Offers)))
			searchSpan.SetAttr("nodes", strconv.FormatInt(resp.Stats.Nodes, 10))
		}
		if pe := probe.Explain(); pe != nil {
			searchSpan.SetAttr("final_threshold", strconv.Itoa(pe.FinalThresh))
			searchSpan.SetAttr("pruned", strconv.FormatInt(pe.Pruned, 10))
			searchSpan.SetAttr("filtered", strconv.FormatInt(pe.Filtered, 10))
			searchSpan.SetAttr("roots_explored", strconv.FormatInt(pe.RootsExplored, 10))
		}
		searchSpan.End()
	}()

	if testSearchHook != nil {
		testSearchHook(kindPartial, req)
	}

	// One consistent epoch for the whole slice (see runSearch).
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
	opts := ktg.SearchOptions{
		Algorithm: wireAlgorithms[req.Algorithm],
		Index:     idx,
		MaxNodes:  req.MaxNodes,
		Context:   ctx,
		Logger:    logger,
		Probe:     probe,
	}

	pr, err := nw.SearchPartial(q, opts, ktg.CandidateSlice{
		Index: req.SliceIndex,
		Count: req.SliceCount,
	})
	if pr == nil {
		return nil, badRequest("invalid_query", "%v", err)
	}
	reqRec.Phases = phaseRecords(pr.Stats)
	if reqCtx.Err() != nil {
		return nil, reqCtx.Err()
	}
	resp = &PartialResponse{
		Dataset:      ds.Name,
		Algorithm:    req.Algorithm,
		SliceIndex:   req.SliceIndex,
		SliceCount:   req.SliceCount,
		FrontierSize: pr.FrontierSize,
		QueryWidth:   pr.QueryWidth,
		Best:         pr.Best,
		Threshold:    pr.Threshold,
		Offers:       make([]PartialOfferJSON, 0, len(pr.Offers)),
		Groups:       make([]GroupJSON, 0, len(pr.Groups)),
		Stats:        pr.Stats,
		Epoch:        epoch,
	}
	if resp.Algorithm == "" {
		resp.Algorithm = "vkc-deg"
	}
	for _, o := range pr.Offers {
		resp.Offers = append(resp.Offers, PartialOfferJSON{
			Members:  o.Members,
			Covered:  o.Covered,
			QKC:      o.QKC,
			Coverage: o.Coverage,
			RootPos:  o.RootPos,
			Seq:      o.Seq,
		})
	}
	for _, g := range pr.Groups {
		resp.Groups = append(resp.Groups, GroupJSON{Members: g.Members, Covered: g.Covered, QKC: g.QKC})
	}
	switch {
	case err == nil:
	case errors.Is(err, context.DeadlineExceeded):
		resp.Partial, resp.PartialReason = true, "deadline"
	case errors.Is(err, ktg.ErrBudgetExhausted):
		resp.Partial, resp.PartialReason = true, "budget"
	default:
		return nil, fmt.Errorf("partial search failed: %w", err)
	}
	if resp.Partial {
		mPartial.Inc()
		mPartialTruncated.Inc()
	}
	pe := probe.Explain()
	if pe.TimeToFirstNS > 0 {
		mFirstResultNS.Observe(pe.TimeToFirstNS)
		mFinalImprovementNS.Observe(pe.TimeToFinalNS)
	}
	if req.Explain {
		mExplainRequests.Inc()
		pe.Algorithm = resp.Algorithm
		pe.Epoch = epoch
		resp.Explain = pe
	}
	return resp, nil
}
