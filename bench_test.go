// Benchmarks regenerating every table and figure of the paper's
// evaluation (Section VII) at reduced scale, plus ablation benchmarks
// for the design choices called out in DESIGN.md.
//
// Each BenchmarkTable*/BenchmarkFig* iteration executes the full
// corresponding experiment from internal/expr — the same code path the
// ktgbench CLI runs at larger scales. Dataset generation and index
// construction are cached across iterations (they are measured
// separately by BenchmarkFig9*).
package ktg_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	"ktg"
	"ktg/internal/expr"
)

// benchEnv returns a process-wide experiment environment at benchmark
// scale: ~0.4% of the paper's dataset sizes, 2 queries per point, with a
// 150ms per-query ceiling so a full -bench=. run stays in minutes. The
// ktgbench CLI runs the same experiments at larger scales and budgets.
var benchEnv = sync.OnceValue(func() *expr.Env {
	e := expr.NewEnv(0.004, 2, 11)
	e.MaxNodes = 2_000_000
	e.MaxTime = 150 * time.Millisecond
	return e
})

func benchExperiment(b *testing.B, id string) {
	e, ok := expr.Find(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	env := benchEnv()
	// Pre-build datasets/indexes outside the timed region.
	if _, err := e.Run(env); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1 regenerates the Table I parameter grid report.
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkFig3 regenerates Figure 3: latency vs group size p for
// KTG-QKC-NLRNL, KTG-VKC-NL, KTG-VKC-NLRNL, KTG-VKC-DEG-NLRNL and
// DKTG-Greedy on the four main datasets.
func BenchmarkFig3(b *testing.B) { benchExperiment(b, "fig3") }

// BenchmarkFig4 regenerates Figure 4: latency vs social constraint k.
func BenchmarkFig4(b *testing.B) { benchExperiment(b, "fig4") }

// BenchmarkFig5 regenerates Figure 5: latency vs query keyword size.
func BenchmarkFig5(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkFig6 regenerates Figure 6: latency vs N.
func BenchmarkFig6(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkFig7a regenerates Figure 7(a): the denser Twitter graph,
// KTG-VKC vs KTG-VKC-DEG across p.
func BenchmarkFig7a(b *testing.B) { benchExperiment(b, "fig7a") }

// BenchmarkFig7b regenerates Figure 7(b): the large DBLP graph, NL vs
// NLRNL scalability across k.
func BenchmarkFig7b(b *testing.B) { benchExperiment(b, "fig7b") }

// BenchmarkFig8 regenerates the Figure 8 case study (KTG-VKC-DEG vs
// DKTG-Greedy vs TAGQ).
func BenchmarkFig8(b *testing.B) { benchExperiment(b, "fig8") }

// benchNet returns a small Gowalla-like network for the index and
// ablation benchmarks.
var benchNet = sync.OnceValue(func() *ktg.Network {
	net, err := ktg.GeneratePreset("gowalla", 0.015)
	if err != nil {
		panic(err)
	}
	return net
})

// BenchmarkFig9a measures index space (Figure 9(a)): bytes per index on
// the benchmark dataset, reported as custom metrics.
func BenchmarkFig9a(b *testing.B) {
	net := benchNet()
	nl, err := net.BuildNL(0)
	if err != nil {
		b.Fatal(err)
	}
	nlrnl, err := net.BuildNLRNL()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(nl.SpaceBytes()), "NL-bytes")
	b.ReportMetric(float64(nlrnl.SpaceBytes()), "NLRNL-bytes")
	for i := 0; i < b.N; i++ {
		_ = nl.SpaceBytes() + nlrnl.SpaceBytes()
	}
}

// BenchmarkFig9b measures index construction time (Figure 9(b)).
func BenchmarkFig9b(b *testing.B) {
	net := benchNet()
	b.Run("NL", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := net.BuildNL(0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("NLRNL", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := net.BuildNLRNL(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchQuery is a representative mid-hardness query for the ablations.
func benchQuery(net *ktg.Network) ktg.Query {
	return ktg.Query{
		Keywords:  net.PopularKeywords(24)[18:24],
		GroupSize: 4,
		Tenuity:   2,
		TopN:      5,
	}
}

// BenchmarkAblationKeywordPruning isolates the Theorem 2 bound: the same
// search with pruning on vs off.
func BenchmarkAblationKeywordPruning(b *testing.B) {
	net := benchNet()
	idx, err := net.BuildNLRNL()
	if err != nil {
		b.Fatal(err)
	}
	q := benchQuery(net)
	for _, c := range []struct {
		name    string
		disable bool
	}{{"pruning-on", false}, {"pruning-off", true}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := net.Search(q, ktg.SearchOptions{
					Index:                 idx,
					DisableKeywordPruning: c.disable,
					MaxNodes:              5_000_000,
					MaxDuration:           2 * time.Second,
				}); err != nil && !errors.Is(err, ktg.ErrBudgetExhausted) {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationBoundCap compares the paper's literal Theorem 2 bound
// with this implementation's |W_Q|-capped bound (see
// SearchOptions.UncappedPruneBound).
func BenchmarkAblationBoundCap(b *testing.B) {
	net := benchNet()
	idx, err := net.BuildNLRNL()
	if err != nil {
		b.Fatal(err)
	}
	q := benchQuery(net)
	for _, c := range []struct {
		name     string
		uncapped bool
	}{{"capped", false}, {"paper-uncapped", true}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := net.Search(q, ktg.SearchOptions{
					Index:              idx,
					UncappedPruneBound: c.uncapped,
					MaxNodes:           5_000_000,
					MaxDuration:        2 * time.Second,
				}); err != nil && !errors.Is(err, ktg.ErrBudgetExhausted) {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationOracle runs the same search over each distance oracle.
func BenchmarkAblationOracle(b *testing.B) {
	net := benchNet()
	nl, err := net.BuildNL(0)
	if err != nil {
		b.Fatal(err)
	}
	nlrnl, err := net.BuildNLRNL()
	if err != nil {
		b.Fatal(err)
	}
	pll, err := net.BuildPLL()
	if err != nil {
		b.Fatal(err)
	}
	q := benchQuery(net)
	for _, idx := range []ktg.DistanceIndex{net.NewBFSIndex(), nl, nlrnl, pll} {
		b.Run(idx.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := net.Search(q, ktg.SearchOptions{
					Index:    idx,
					MaxNodes: 5_000_000,
				}); err != nil && !errors.Is(err, ktg.ErrBudgetExhausted) {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationOrdering compares the three candidate orderings under
// the paper's cost model.
func BenchmarkAblationOrdering(b *testing.B) {
	net := benchNet()
	idx, err := net.BuildNLRNL()
	if err != nil {
		b.Fatal(err)
	}
	q := benchQuery(net)
	for _, alg := range []ktg.Algorithm{ktg.AlgQKC, ktg.AlgVKC, ktg.AlgVKCDeg} {
		b.Run(alg.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := net.Search(q, ktg.SearchOptions{
					Algorithm:          alg,
					Index:              idx,
					UncappedPruneBound: true,
					MaxNodes:           5_000_000,
					MaxDuration:        2 * time.Second,
				}); err != nil && !errors.Is(err, ktg.ErrBudgetExhausted) {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSearch measures one exact KTG-VKC-DEG/NLRNL query — the
// reference number for the observability layer's "near-zero cost when
// off" requirement. The off/probe sub-benchmarks differ only in
// whether a Probe is installed, so their delta is the explain-plan
// overhead.
func BenchmarkSearch(b *testing.B) {
	net := benchNet()
	idx, err := net.BuildNLRNL()
	if err != nil {
		b.Fatal(err)
	}
	q := benchQuery(net)
	run := func(b *testing.B, opts ktg.SearchOptions) {
		opts.Index = idx
		opts.MaxNodes = 5_000_000
		opts.MaxDuration = 2 * time.Second
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := net.Search(q, opts); err != nil && !errors.Is(err, ktg.ErrBudgetExhausted) {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) { run(b, ktg.SearchOptions{}) })
	// A probe is single-use, so it must be created inside the loop —
	// which is also how the server uses it (one per request).
	b.Run("probe", func(b *testing.B) {
		idxOpts := ktg.SearchOptions{Index: idx, MaxNodes: 5_000_000, MaxDuration: 2 * time.Second}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			opts := idxOpts
			opts.Probe = &ktg.Probe{}
			if _, err := net.Search(q, opts); err != nil && !errors.Is(err, ktg.ErrBudgetExhausted) {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSearchDiverse measures the DKTG-Greedy overhead over a plain
// top-N search.
func BenchmarkSearchDiverse(b *testing.B) {
	net := benchNet()
	idx, err := net.BuildNLRNL()
	if err != nil {
		b.Fatal(err)
	}
	q := benchQuery(net)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.SearchDiverse(q, ktg.DiverseOptions{
			SearchOptions: ktg.SearchOptions{Index: idx, MaxNodes: 5_000_000, MaxDuration: 2 * time.Second},
			Gamma:         0.5,
		}); err != nil && !errors.Is(err, ktg.ErrBudgetExhausted) {
			b.Fatal(err)
		}
	}
}
