package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ktg/internal/obs"
)

// debugRecords fetches and decodes one of the flight-recorder debug
// endpoints from a live test server.
func debugRecords(t *testing.T, url string) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("GET %s: bad JSON: %v\n%s", url, err, raw)
	}
	return out
}

// postHTTP issues a real HTTP POST and returns the status, the
// X-Request-Id response header, and the decoded body.
func postHTTP(t *testing.T, url, body string) (int, string, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("POST %s: bad JSON: %v\n%s", url, err, raw)
	}
	return resp.StatusCode, resp.Header.Get("X-Request-Id"), out
}

// TestRequestObservabilityEndToEnd is the acceptance test for the
// request-scoped observability layer: concurrent queries over a real
// HTTP listener, then the flight-recorder endpoints and labeled metrics
// are checked against what was actually issued.
func TestRequestObservabilityEndToEnd(t *testing.T) {
	recorder := obs.NewFlightRecorder(64, 8, 30*time.Millisecond, time.Hour)
	s := newTestServer(t, Config{Workers: 4, Recorder: recorder,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	blockEntered := make(chan struct{})
	blockGate := make(chan struct{})
	var blockOnce sync.Once
	testSearchHook = func(kind string, req *QueryRequest) {
		for _, kw := range req.Keywords {
			switch kw {
			case "SLOW":
				time.Sleep(60 * time.Millisecond) // recorder threshold is 30ms
			case "BLOCK":
				blockOnce.Do(func() { close(blockEntered) })
				<-blockGate
			}
		}
	}
	defer func() { testSearchHook = nil }()

	latencyCount := mQueryLatency.With("reviewers", "vkc-deg").Count()

	// Phase 1: concurrent distinct queries (distinct cache keys, so each
	// runs its own search and fills its own record).
	bodies := []string{
		`{"dataset":"reviewers","keywords":["SN","GD","DQ"],"group_size":2,"tenuity":0,"top_n":2}`,
		`{"dataset":"reviewers","keywords":["SN","GD","DQ"],"group_size":2,"tenuity":1,"top_n":2}`,
		`{"dataset":"reviewers","keywords":["SN","GD","DQ"],"group_size":3,"tenuity":0,"top_n":2}`,
		`{"dataset":"reviewers","keywords":["SN","GD","DQ"],"group_size":3,"tenuity":1,"top_n":2}`,
	}
	ids := make([]string, len(bodies))
	var wg sync.WaitGroup
	for i, body := range bodies {
		wg.Add(1)
		go func(i int, body string) {
			defer wg.Done()
			status, rid, _ := postHTTP(t, ts.URL+"/v1/query", body)
			if status != 200 {
				t.Errorf("query %d: status %d", i, status)
			}
			ids[i] = rid
		}(i, body)
	}
	wg.Wait()

	seen := make(map[string]bool)
	for i, id := range ids {
		if id == "" {
			t.Fatalf("query %d: response lacks X-Request-Id", i)
		}
		if seen[id] {
			t.Fatalf("request ID %q assigned twice", id)
		}
		seen[id] = true
	}

	// Phase 2: a deliberately slow query (hook sleeps past the recorder's
	// slow threshold) for the slow-query log.
	status, slowID, _ := postHTTP(t, ts.URL+"/v1/query",
		`{"dataset":"reviewers","keywords":["SN","SLOW"],"group_size":2,"tenuity":1}`)
	if status != 200 {
		t.Fatalf("slow query: status %d", status)
	}

	// Phase 3: a blocked query must be visible in /debug/inflight while
	// it runs and gone after it completes.
	blockDone := make(chan string, 1)
	go func() {
		_, rid, _ := postHTTP(t, ts.URL+"/v1/query",
			`{"dataset":"reviewers","keywords":["SN","BLOCK"],"group_size":2,"tenuity":1}`)
		blockDone <- rid
	}()
	<-blockEntered

	inflight := debugRecords(t, ts.URL+"/debug/inflight")["inflight"].([]any)
	if len(inflight) != 1 {
		t.Fatalf("inflight holds %d entries while one request is blocked, want 1: %v", len(inflight), inflight)
	}
	blocked := inflight[0].(map[string]any)
	if blocked["endpoint"] != "/v1/query" || blocked["dataset"] != "reviewers" {
		t.Errorf("inflight entry = %v", blocked)
	}
	if blocked["elapsed_ns"].(float64) <= 0 {
		t.Errorf("inflight elapsed_ns = %v, want > 0", blocked["elapsed_ns"])
	}
	close(blockGate)
	blockID := <-blockDone
	if blocked["id"] != blockID {
		t.Errorf("inflight ID %v does not match the blocked request's header %q", blocked["id"], blockID)
	}

	// Records land in the ring when the middleware defer runs, which can
	// trail the client seeing the response — poll briefly.
	allIDs := append(append([]string(nil), ids...), slowID, blockID)
	var records map[string]map[string]any
	deadline := time.Now().Add(5 * time.Second)
	for {
		records = make(map[string]map[string]any)
		for _, raw := range debugRecords(t, ts.URL+"/debug/requests")["records"].([]any) {
			rec := raw.(map[string]any)
			records[rec["id"].(string)] = rec
		}
		missing := false
		for _, id := range allIDs {
			if _, ok := records[id]; !ok {
				missing = true
			}
		}
		if !missing {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("flight recorder never saw all %d requests: %v", len(allIDs), records)
		}
		time.Sleep(5 * time.Millisecond)
	}

	for _, id := range allIDs {
		rec := records[id]
		if rec["outcome"] != "ok" || rec["status"].(float64) != 200 {
			t.Errorf("record %s: outcome %v status %v, want ok/200", id, rec["outcome"], rec["status"])
		}
		if rec["dataset"] != "reviewers" || rec["algorithm"] != "vkc-deg" {
			t.Errorf("record %s: dataset %v algorithm %v", id, rec["dataset"], rec["algorithm"])
		}
		stats, _ := rec["stats"].(map[string]any)
		if stats == nil {
			t.Errorf("record %s has no stats", id)
		} else if _, ok := stats["nodes"]; !ok {
			t.Errorf("record %s stats lack nodes: %v", id, stats)
		}
		// The record's phases are the search's own phase timings: one
		// per phase that took time, each equal to the matching stats
		// duration.
		phases := map[string]float64{}
		for _, raw := range rec["phases"].([]any) {
			p := raw.(map[string]any)
			phases[p["phase"].(string)] = p["duration_ns"].(float64)
		}
		want := map[string]float64{}
		for phase, key := range map[string]string{
			obs.PhaseCompile:    "compile_ns",
			obs.PhaseCandidates: "candidate_ns",
			obs.PhaseExplore:    "explore_ns",
		} {
			if ns, _ := stats[key].(float64); ns > 0 {
				want[phase] = ns
			}
		}
		if _, ok := want[obs.PhaseExplore]; !ok || !reflect.DeepEqual(phases, want) {
			t.Errorf("record %s phases = %v, want %v from its stats (explore included)", id, phases, want)
		}
		if rec["params_digest"] == "" {
			t.Errorf("record %s lacks a params digest", id)
		}
	}

	// The slow query ranks first in the slow log (it is the only request
	// past the 30ms threshold).
	slow := debugRecords(t, ts.URL+"/debug/requests/slow")["records"].([]any)
	if len(slow) == 0 {
		t.Fatal("slow-query log is empty")
	}
	if first := slow[0].(map[string]any); first["id"] != slowID {
		t.Errorf("slow log ranks %v first, want the deliberate slow query %q", first["id"], slowID)
	}

	// After the blocked request completed, the in-flight table drains.
	for {
		if left := debugRecords(t, ts.URL+"/debug/inflight")["inflight"].([]any); len(left) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("inflight table never drained")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Labeled latency series: one observation per request issued, and the
	// exposition carries the dataset/algorithm labels.
	if got := mQueryLatency.With("reviewers", "vkc-deg").Count() - latencyCount; got != int64(len(allIDs)) {
		t.Errorf("labeled latency count moved %d, want %d", got, len(allIDs))
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metricsText, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`ktg_server_query_latency_ns_count{dataset="reviewers",algorithm="vkc-deg"}`,
		`ktg_server_search_nodes_total{dataset="reviewers",algorithm="vkc-deg"}`,
		"ktg_build_info{",
	} {
		if !strings.Contains(string(metricsText), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestInboundRequestIDHonoredAndSanitized(t *testing.T) {
	recorder := obs.NewFlightRecorder(16, 4, -1, 0)
	s := newTestServer(t, Config{Recorder: recorder,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	h := s.Handler()

	// A well-formed inbound ID is honored end to end: echoed on the
	// response and stamped on the flight-recorder record.
	req := httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(goodBody))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", "caller-supplied.id:42")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if got := rec.Header().Get("X-Request-Id"); got != "caller-supplied.id:42" {
		t.Fatalf("echoed ID = %q, want the inbound one", got)
	}
	recent, _ := recorder.Recent(1)
	if len(recent) != 1 || recent[0].ID != "caller-supplied.id:42" {
		t.Fatalf("recorded ID = %v, want caller-supplied.id:42", recent)
	}

	// A malformed inbound ID (spaces, header-injection material) is
	// replaced with a generated one, never echoed back.
	req = httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(goodBody))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", "bad id with spaces")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	got := rec.Header().Get("X-Request-Id")
	if got == "" || got == "bad id with spaces" {
		t.Fatalf("malformed inbound ID echoed as %q, want a generated replacement", got)
	}
	if len(got) != 16 {
		t.Fatalf("generated ID %q has length %d, want 16", got, len(got))
	}

	// Oversized IDs are replaced too.
	req = httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(goodBody))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", strings.Repeat("a", 200))
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if got := rec.Header().Get("X-Request-Id"); len(got) != 16 {
		t.Fatalf("oversized inbound ID echoed as %q", got)
	}
}

// syncBuffer is a goroutine-safe log sink for asserting on slog output.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestEveryRequestLogLineCarriesRequestID drives each request-path log
// site — slow-query warn, graceful degrade, search panic, client
// cancellation, cache invalidation — and asserts every emitted line
// carries the request_id attribute.
func TestEveryRequestLogLineCarriesRequestID(t *testing.T) {
	buf := &syncBuffer{}
	logger := slog.New(slog.NewTextHandler(buf, nil))
	recorder := obs.NewFlightRecorder(16, 4, 50*time.Millisecond, time.Hour)
	s := newTestServer(t, Config{
		Workers:          1,
		DegradeQueueWait: time.Millisecond,
		Logger:           logger,
		Recorder:         recorder,
	})
	h := s.Handler()

	holdEntered := make(chan struct{})
	var holdOnce sync.Once
	cancelEntered := make(chan struct{})
	var cancelOnce sync.Once
	cancelGate := make(chan struct{})
	testSearchHook = func(kind string, req *QueryRequest) {
		for _, kw := range req.Keywords {
			switch kw {
			case "HOLD":
				holdOnce.Do(func() { close(holdEntered) })
				time.Sleep(100 * time.Millisecond) // past the 50ms slow threshold
			case "PANIC":
				panic("injected search panic")
			case "CWAIT":
				cancelOnce.Do(func() { close(cancelEntered) })
				<-cancelGate
			}
		}
	}
	defer func() { testSearchHook = nil }()

	// Degrade + slow warn: HOLD pins the only worker past the slow
	// threshold; the queued second query waits >= DegradeQueueWait and is
	// downgraded to greedy.
	holdDone := make(chan int, 1)
	go func() {
		rec, _ := postJSON(t, h, "/v1/query", `{"dataset":"reviewers","keywords":["SN","HOLD"],"group_size":2,"tenuity":1}`)
		holdDone <- rec.Code
	}()
	<-holdEntered
	rec, out := postJSON(t, h, "/v1/query", goodBody)
	if rec.Code != 200 || out["degraded"] != true {
		t.Fatalf("queued query: status %d degraded %v, want degraded 200", rec.Code, out["degraded"])
	}
	if code := <-holdDone; code != 200 {
		t.Fatalf("holding query finished %d", code)
	}

	// Search panic.
	if rec, _ = postJSON(t, h, "/v1/query", `{"dataset":"reviewers","keywords":["PANIC"],"group_size":2,"tenuity":1}`); rec.Code != 500 {
		t.Fatalf("panicking query: status %d, want 500", rec.Code)
	}

	// Client cancellation mid-search.
	ctx, cancel := context.WithCancel(context.Background())
	cancelServed := make(chan struct{})
	go func() {
		defer close(cancelServed)
		req := httptest.NewRequest(http.MethodPost, "/v1/query",
			strings.NewReader(`{"dataset":"reviewers","keywords":["SN","CWAIT"],"group_size":2,"tenuity":1}`)).WithContext(ctx)
		req.Header.Set("Content-Type", "application/json")
		h.ServeHTTP(httptest.NewRecorder(), req)
	}()
	<-cancelEntered
	cancel()
	close(cancelGate)
	<-cancelServed

	// Cache invalidation.
	if rec, _ = postJSON(t, h, "/v1/cache/invalidate", ""); rec.Code != 200 {
		t.Fatalf("invalidate: status %d", rec.Code)
	}

	logText := buf.String()
	for _, wantMsg := range []string{
		"degrading exact search to greedy",
		"slow query",
		"search panicked",
		"request abandoned by client",
		"result cache invalidated",
	} {
		if !strings.Contains(logText, fmt.Sprintf("msg=%q", wantMsg)) {
			t.Errorf("log output lacks %q:\n%s", wantMsg, logText)
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(logText), "\n") {
		if line == "" {
			continue
		}
		if !strings.Contains(line, "request_id=") {
			t.Errorf("log line lacks request_id: %s", line)
		}
	}
}
