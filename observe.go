package ktg

import (
	"context"
	"io"
	"log/slog"
	"time"

	"ktg/internal/core"
	"ktg/internal/obs"
)

// SetDefaultLogger installs the process-wide structured logger used by
// every search and index build that was not handed a more specific one
// via Network.SetLogger or SearchOptions.Logger. The library default
// discards all records, so instrumentation is free until opted in.
// Passing nil restores the silent default.
func SetDefaultLogger(l *slog.Logger) { obs.SetLogger(l) }

// NewRequestID returns a fresh random request identifier (16 hex
// chars), the same generator the query server uses for requests that
// arrive without an X-Request-Id header.
func NewRequestID() string { return obs.NewRequestID() }

// WithRequestID returns a context carrying a request ID. Searches run
// with this context (SearchOptions.Context) correlate their core-level
// log lines with the ID even when no request-scoped logger was
// injected, and server-side records pick it up end to end.
func WithRequestID(ctx context.Context, id string) context.Context {
	return obs.WithRequestID(ctx, id)
}

// RequestIDFromContext returns the request ID attached by
// WithRequestID, or "" when none is present.
func RequestIDFromContext(ctx context.Context) string {
	return obs.RequestIDFromContext(ctx)
}

// StartDebugServer serves the library's observability surface on addr
// (e.g. ":6060"): Prometheus-text metrics on /metrics (?format=json for
// JSON), expvar on /debug/vars, and the standard profiles under
// /debug/pprof/. It returns the bound address (useful with ":0") and a
// shutdown function. The cmd/ tools expose it as -debug-addr.
func StartDebugServer(addr string) (string, func() error, error) {
	return obs.StartDebugServer(addr)
}

// WriteMetrics renders the process-wide KTG metrics in the Prometheus
// text exposition format.
func WriteMetrics(w io.Writer) error { return obs.Default().WritePrometheus(w) }

// MetricsSnapshot returns the process-wide KTG metrics as a plain map
// (histograms appear as {count, sum, mean, p50, p99} objects).
func MetricsSnapshot() map[string]any { return obs.Default().Snapshot() }

// Process-wide search metrics, batched at search boundaries so the hot
// path never touches them per node.
var (
	mSearches = obs.Default().Counter(
		"ktg_searches_total", "KTG/DKTG/greedy searches answered")
	mSearchNanos = obs.Default().Histogram(
		"ktg_search_duration_ns", "end-to-end search wall-clock time in nanoseconds")
	mSearchNodes = obs.Default().Counter(
		"ktg_search_nodes_total", "branch-and-bound nodes explored")
	mSearchPruned = obs.Default().Counter(
		"ktg_search_pruned_total", "subtrees cut by keyword pruning (Theorem 2)")
	mSearchFiltered = obs.Default().Counter(
		"ktg_search_filtered_total", "candidates removed by k-line filtering (Theorem 3)")
	mSearchOracle = obs.Default().Counter(
		"ktg_search_distance_checks_total", "social-distance oracle calls")
	mSearchFeasible = obs.Default().Counter(
		"ktg_search_feasible_total", "complete size-p groups evaluated")
	mSearchExhausted = obs.Default().Counter(
		"ktg_search_budget_exhausted_total", "searches aborted by MaxNodes/MaxDuration")
)

// recordSearch folds one finished search into the process-wide metrics.
func recordSearch(dur time.Duration, s core.Stats, budgetHit bool) {
	mSearches.Inc()
	mSearchNanos.Observe(dur.Nanoseconds())
	mSearchNodes.Add(s.Nodes)
	mSearchPruned.Add(s.Pruned)
	mSearchFiltered.Add(s.Filtered)
	mSearchOracle.Add(s.OracleCalls)
	mSearchFeasible.Add(s.Feasible)
	if budgetHit {
		mSearchExhausted.Inc()
	}
}
