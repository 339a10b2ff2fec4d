package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"

	"ktg"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd lists the metrics a user of the system sees; every workload
// reports all of them in an untraced run (--trace 0).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"setup_heap_mb", "MB"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"throughput_ops", "1/s"},
	{"alloc_kb_per_op", "KB"},
	{"ok_frac", "frac"},
}

// perLayer lists the single-layer metrics of a traced run (--trace 1).
// Every workload reports all of them; a layer that is not on the
// workload's path reports 0.
var perLayer = []metricDef{
	{"core.nodes_per_query", "count"},
	{"core.pruned_per_query", "count"},
	{"core.filtered_per_query", "count"},
	{"core.feasible_per_query", "count"},
	{"core.checks_per_query", "count"},
	{"core.filter_hit_frac", "frac"},
	{"core.compile_ms", "ms"},
	{"core.candidates_ms", "ms"},
	{"core.explore_ms", "ms"},
	{"core.ns_per_node", "ns"},
	{"core.ns_per_check", "ns"},
	{"core.explore_self_ms", "ms"},
	{"index.within_calls_per_query", "count"},
	{"index.within_ns", "ns"},
	{"index.build_s", "s"},
	{"index.space_mb", "MB"},
	{"gen.generate_s", "s"},
	{"server.handler_ms", "ms"},
	{"server.self_ms", "ms"},
	{"server.queue_wait_ms", "ms"},
	{"server.cache_hit_frac", "frac"},
	{"server.rejected_frac", "frac"},
	{"server.partial_frac", "frac"},
	{"server.degraded_frac", "frac"},
	{"client.overhead_ms", "ms"},
	{"client.retries_per_op", "count"},
	{"shard.coord_self_ms", "ms"},
	{"shard.slowest_shard_ms", "ms"},
	{"shard.skew", "ratio"},
	{"shard.work_amplification", "ratio"},
	{"live.apply_ms", "ms"},
	{"live.swap_ms", "ms"},
	{"live.affected_frac", "frac"},
	{"live.cache_invalidated_per_mutation", "count"},
	{"wal.fsync_ms", "ms"},
	{"wal.bytes_per_mutation", "B"},
	{"wal.fsyncs_per_mutation", "count"},
	{"mutation_p50_ms", "ms"},
	{"mutation_tail_ms", "ms"},
	{"failed_frac", "frac"},
	{"bench.generator_lag_ms", "ms"},
	{"bench.trace_overhead_frac", "frac"},
	{"bench.unattributed_frac", "frac"},
	{"bench.residual_frac", "frac"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects one workload run: counts, metric values by name and
// the human-readable lines printed before the result.
type report struct {
	attempted, failed int
	values            map[string]float64
	notes             []string
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// metrics returns the values of defs, 0 where the run measured nothing.
func (r *report) metrics(defs []metricDef) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v := r.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the nearest-rank q-quantile of ds (0 for no samples).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// tailLadder is the percentiles a tail latency may be reported at. The
// steps are coarse, so that a workload keeps its percentile over a wide
// range of sample counts.
var tailLadder = []float64{0.999, 0.99, 0.9, 0.5}

// tailQuantile returns the highest ladder percentile with at least ten
// samples beyond it at n samples.
func tailQuantile(n int) float64 {
	for _, q := range tailLadder {
		if beyond(n, q) >= 10 {
			return q
		}
	}
	return 0.5
}

// beyond returns how many of n samples lie above the q-quantile.
func beyond(n int, q float64) int { return int(math.Floor(float64(n)*(1-q) + 1e-9)) }

// mean returns the arithmetic mean of ds (0 for no samples).
func mean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t / time.Duration(len(ds))
}

// digestOf hashes a sequence of JSON-encodable values in order.
func digestOf(items []any) string {
	h := sha256.New()
	for _, it := range items {
		b, err := json.Marshal(it)
		if err != nil {
			panic(err) // only plain structs are digested
		}
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// phaseTimes sums the core phase times of searches.
type phaseTimes struct {
	n                      int
	compile, cand, explore time.Duration
	nodes, checks          int64
}

func (p *phaseTimes) add(s ktg.SearchStats) {
	p.n++
	p.compile += s.CompileTime
	p.cand += s.CandidateTime
	p.explore += s.ExploreTime
	p.nodes += s.Nodes
	p.checks += s.DistanceChecks
}

// report sets the mean phase times and the unit costs of exploration.
func (p *phaseTimes) report(r *report) {
	if p.n == 0 {
		return
	}
	n := float64(p.n)
	r.set("core.compile_ms", ms(p.compile)/n)
	r.set("core.candidates_ms", ms(p.cand)/n)
	r.set("core.explore_ms", ms(p.explore)/n)
	r.set("core.ns_per_node", float64(p.explore)/float64(p.nodes))
	r.set("core.ns_per_check", float64(p.explore)/float64(p.checks))
}

// windows is how many open-loop/closed-loop rounds a served run
// alternates, so that both phases sample the host over the whole run.
const windows = 3

func medianF(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	return s[len(s)/2]
}
