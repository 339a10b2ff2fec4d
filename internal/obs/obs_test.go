package obs

import (
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	var g Gauge
	g.Set(10)
	g.Add(-3)
	if g.Value() != 7 {
		t.Errorf("gauge = %d, want 7", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []int64{-5, 0, 1, 2, 3, 4, 5, 1024, 1025} {
		h.Observe(v)
	}
	if h.Count() != 9 {
		t.Errorf("count = %d, want 9", h.Count())
	}
	if h.Sum() != -5+0+1+2+3+4+5+1024+1025 {
		t.Errorf("sum = %d", h.Sum())
	}
	// -5, 0, 1 land in bucket 0 (le 1); 2 in bucket 1; 3, 4 in bucket 2;
	// 5 in bucket 3; 1024 in bucket 10; 1025 in bucket 11.
	wantBuckets := map[int]int64{0: 3, 1: 1, 2: 2, 3: 1, 10: 1, 11: 1}
	for i := range h.buckets {
		if got := h.buckets[i].Load(); got != wantBuckets[i] {
			t.Errorf("bucket %d = %d, want %d", i, got, wantBuckets[i])
		}
	}
	if m := h.Mean(); m < 228 || m > 229 {
		t.Errorf("mean = %v", m)
	}
	// Quantile targets observation floor(q*n) = 4; the 4th smallest
	// value (2) lives in bucket 1, whose upper bound is 2.
	if q := h.Quantile(0.5); q != 2 {
		t.Errorf("p50 = %d, want 2", q)
	}
	if q := h.Quantile(1.0); q != 2048 {
		t.Errorf("p100 = %d, want 2048", q)
	}
	var empty Histogram
	if empty.Mean() != 0 || empty.Quantile(0.99) != 0 {
		t.Error("empty histogram should report zeros")
	}
}

func TestRegistryIdempotentAndKindMismatch(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("x_total", "help")
	c2 := r.Counter("x_total", "ignored on second registration")
	if c1 != c2 {
		t.Error("re-registration returned a different counter")
	}
	defer func() {
		if recover() == nil {
			t.Error("kind mismatch did not panic")
		}
	}()
	r.Gauge("x_total", "same name, different kind")
}

func TestRegistryConcurrentLookup(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.Counter("shared_total", "h").Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared_total", "h").Value(); got != 800 {
		t.Errorf("shared counter = %d, want 800", got)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("ktg_searches_total", "completed searches").Add(3)
	r.Gauge("ktg_live", "live things").Set(2)
	h := r.Histogram("ktg_lat_ns", "latency")
	h.Observe(1)
	h.Observe(3)
	h.Observe(3)
	var buf strings.Builder
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP ktg_searches_total completed searches",
		"# TYPE ktg_searches_total counter",
		"ktg_searches_total 3",
		"# TYPE ktg_live gauge",
		"ktg_live 2",
		"# TYPE ktg_lat_ns histogram",
		`ktg_lat_ns_bucket{le="1"} 1`,
		`ktg_lat_ns_bucket{le="4"} 3`, // cumulative across the sparse gap
		`ktg_lat_ns_bucket{le="+Inf"} 3`,
		"ktg_lat_ns_sum 7",
		"ktg_lat_ns_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestSnapshotAndJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "").Add(9)
	r.Histogram("h_ns", "").Observe(100)
	snap := r.Snapshot()
	if snap["c_total"] != int64(9) {
		t.Errorf("snapshot counter = %v", snap["c_total"])
	}
	hm, ok := snap["h_ns"].(map[string]any)
	if !ok || hm["count"] != int64(1) {
		t.Errorf("snapshot histogram = %v", snap["h_ns"])
	}
	var buf strings.Builder
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal([]byte(buf.String()), &decoded); err != nil {
		t.Fatalf("WriteJSON produced invalid JSON: %v", err)
	}
	if decoded["c_total"].(float64) != 9 {
		t.Errorf("JSON counter = %v", decoded["c_total"])
	}
}

func TestHandlerFormats(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("default Content-Type = %q", ct)
	}
	if !strings.Contains(string(body), "# TYPE c_total counter") {
		t.Errorf("default body not Prometheus text:\n%s", body)
	}

	resp, err = http.Get(srv.URL + "?format=json")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var decoded map[string]any
	if err := json.Unmarshal(body, &decoded); err != nil {
		t.Fatalf("?format=json body not JSON: %v", err)
	}
}

func TestLoggerDefaultAndOr(t *testing.T) {
	SetLogger(nil)
	if Logger() != NopLogger() {
		t.Error("default logger should be the no-op logger")
	}
	var buf strings.Builder
	l := NewTextLogger(&buf, slog.LevelInfo)
	if Or(l) != l {
		t.Error("Or should prefer the explicit logger")
	}
	SetLogger(l)
	defer SetLogger(nil)
	if Or(nil) != l {
		t.Error("Or(nil) should fall back to the installed default")
	}
	Logger().Info("hello", "k", "v")
	if !strings.Contains(buf.String(), "hello") {
		t.Errorf("installed logger did not receive records: %q", buf.String())
	}
	if NopLogger().Enabled(nil, slog.LevelError) {
		t.Error("no-op logger claims to be enabled")
	}
}

func TestDebugMuxEndpoints(t *testing.T) {
	Default().Counter("ktg_debugmux_test_total", "test counter").Inc()
	srv := httptest.NewServer(DebugMux(Default()))
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(body)
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "ktg_debugmux_test_total 1") {
		t.Errorf("/metrics = %d, body:\n%s", code, body)
	}
	code, body := get("/debug/vars")
	if code != 200 {
		t.Fatalf("/debug/vars = %d", code)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}
	if _, ok := vars["ktg"]; !ok {
		t.Error("/debug/vars missing the published ktg registry")
	}
	if code, body := get("/debug/pprof/"); code != 200 || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ = %d", code)
	}
	if code, _ := get("/debug/pprof/cmdline"); code != 200 {
		t.Errorf("/debug/pprof/cmdline = %d", code)
	}
	if code, _ := get("/"); code != 200 {
		t.Errorf("index = %d", code)
	}
	if code, _ := get("/nope"); code != 404 {
		t.Errorf("unknown path = %d, want 404", code)
	}
}

func TestStartDebugServer(t *testing.T) {
	addr, stop, err := StartDebugServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), "# TYPE") {
		t.Errorf("debug server /metrics = %d:\n%s", resp.StatusCode, body)
	}
}
