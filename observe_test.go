package ktg_test

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"testing"

	"ktg"
)

func TestFeasibleCountPlumbed(t *testing.T) {
	n := reviewerNetwork(t)
	res, err := n.Search(reviewerQuery, ktg.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Feasible == 0 {
		t.Error("Search dropped Stats.Feasible")
	}
	dr, err := n.SearchDiverse(reviewerQuery, ktg.DiverseOptions{Gamma: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if dr.Stats.Feasible == 0 {
		t.Error("SearchDiverse dropped Stats.Feasible")
	}
}

func TestSearchStatsTimingBreakdown(t *testing.T) {
	n := reviewerNetwork(t)
	res, err := n.Search(reviewerQuery, ktg.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.ExploreTime <= 0 {
		t.Errorf("ExploreTime = %v, want > 0", s.ExploreTime)
	}
	if len(s.DepthNodes) != reviewerQuery.GroupSize+1 {
		t.Errorf("DepthNodes = %v, want %d entries", s.DepthNodes, reviewerQuery.GroupSize+1)
	}
	var total int64
	for _, c := range s.DepthNodes {
		total += c
	}
	if total != s.Nodes {
		t.Errorf("DepthNodes sums to %d, Nodes = %d", total, s.Nodes)
	}
}

func TestSearchStatsJSONRoundTrip(t *testing.T) {
	n := reviewerNetwork(t)
	res, err := n.Search(reviewerQuery, ktg.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(res.Stats)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"nodes"`, `"pruned"`, `"feasible"`, `"compile_ns"`, `"explore_ns"`, `"depth_nodes"`} {
		if !strings.Contains(string(blob), key) {
			t.Errorf("stats JSON missing %s: %s", key, blob)
		}
	}
	var back ktg.SearchStats
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Nodes != res.Stats.Nodes || back.Feasible != res.Stats.Feasible ||
		back.ExploreTime != res.Stats.ExploreTime {
		t.Errorf("round trip changed stats: %+v vs %+v", back, res.Stats)
	}
}

func TestSetDefaultLoggerSeesSearches(t *testing.T) {
	var buf bytes.Buffer
	h := slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug})
	ktg.SetDefaultLogger(slog.New(h))
	defer ktg.SetDefaultLogger(nil)

	n := reviewerNetwork(t)
	if _, err := n.Search(reviewerQuery, ktg.SearchOptions{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "search start") || !strings.Contains(out, "search done") {
		t.Errorf("default logger missed search lifecycle logs:\n%s", out)
	}
}

func TestProcessMetricsRecorded(t *testing.T) {
	n := reviewerNetwork(t)
	before := ktg.MetricsSnapshot()
	if _, err := n.Search(reviewerQuery, ktg.SearchOptions{}); err != nil {
		t.Fatal(err)
	}
	after := ktg.MetricsSnapshot()
	b, _ := before["ktg_searches_total"].(int64)
	a, _ := after["ktg_searches_total"].(int64)
	if a != b+1 {
		t.Errorf("ktg_searches_total went %d -> %d, want +1", b, a)
	}

	var text strings.Builder
	if err := ktg.WriteMetrics(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ktg_searches_total", "ktg_search_duration_ns", "ktg_search_nodes_total"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("Prometheus exposition missing %s", want)
		}
	}
}

// TestDebugServerEndpoints is the acceptance check: the -debug-addr
// server must answer /metrics with Prometheus text, /debug/vars with
// expvar JSON including the ktg registry, and /debug/pprof/.
func TestDebugServerEndpoints(t *testing.T) {
	addr, stop, err := ktg.StartDebugServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(body)
	}

	code, body := get("/metrics")
	if code != 200 || !strings.Contains(body, "# TYPE") {
		t.Errorf("/metrics = %d:\n%s", code, body)
	}
	code, body = get("/debug/vars")
	if code != 200 {
		t.Fatalf("/debug/vars = %d", code)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}
	if _, ok := vars["ktg"]; !ok {
		t.Error("/debug/vars missing the ktg registry")
	}
	if code, _ := get("/debug/pprof/"); code != 200 {
		t.Errorf("/debug/pprof/ = %d", code)
	}
}
