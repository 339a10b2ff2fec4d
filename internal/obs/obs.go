// Package obs is the KTG stack's observability layer: an atomic
// counter/gauge/histogram registry with Prometheus-text, JSON, and
// expvar exposition; slog-based structured logging with a no-op
// package default; W3C-traceparent spans with a bounded trace store,
// which the search core feeds one completed child span per phase; a
// request flight recorder; and a debug HTTP server exposing /metrics,
// /debug/vars, and /debug/pprof.
//
// The package is designed so that the branch-and-bound hot path pays
// near-zero cost when observability is off: a search outside a traced
// request holds a nil span (every call a no-op), the default logger
// discards before formatting, and all metric mutations are single
// atomic adds batched at search boundaries rather than per node.
package obs

import (
	"expvar"
	"sync"
)

var (
	defaultRegistry    = NewRegistry()
	publishDefaultOnce sync.Once
)

// Default returns the process-wide metric registry shared by the ktg
// library and the cmd/ tools.
func Default() *Registry { return defaultRegistry }

// PublishExpvar publishes the default registry under the expvar name
// "ktg", so GET /debug/vars includes a "ktg" object with every metric.
// Safe to call more than once; only the first call registers.
func PublishExpvar() {
	publishDefaultOnce.Do(func() {
		expvar.Publish("ktg", expvar.Func(func() any { return defaultRegistry.Snapshot() }))
	})
}
