// Command ktgquery answers a single KTG or DKTG query on a dataset, from
// files (ktggen output) or a generated preset.
//
// Examples:
//
//	ktgquery -preset brightkite -scale 0.05 -keywords auto -p 3 -k 2 -n 3
//	ktgquery -edges g.edges -attrs g.attrs -keywords kw01,kw07 -p 4 -k 1 -n 5 -alg vkc -index nl
//	ktgquery -preset dblp -scale 0.02 -keywords auto -diverse
//	ktgquery -preset gowalla -v -stats-json -debug-addr :6060
//
// Result groups print on stdout; progress and statistics go to a
// structured slog logger on stderr (info level by default, debug with
// -v). -stats-json dumps the full SearchStats as one JSON object on
// stdout. -debug-addr serves /metrics, /debug/vars, and /debug/pprof/
// for the lifetime of the process (the process stays up after answering
// so the endpoints can be scraped; interrupt to exit). -trace prints
// the run's span waterfall (compile/candidates/explore timings) on
// stderr; -trace-export appends the trace to a file as OTLP/JSON.
// -explain prints the search's explain plan — the per-depth
// expand/prune/filter breakdown and the bound trajectory — on stdout
// after the result groups.
//
// Ctrl-C during a long search cancels it cleanly: the best groups found
// so far are printed with a warning instead of discarding the work.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ktg"
	"ktg/internal/cliutil"
	"ktg/internal/obs"
)

func main() {
	var (
		preset    = flag.String("preset", "", "generate this preset instead of loading files")
		scale     = flag.Float64("scale", 0.05, "preset scale factor")
		edges     = flag.String("edges", "", "edge-list file (with -attrs)")
		attrs     = flag.String("attrs", "", "keyword attribute file")
		kwList    = flag.String("keywords", "auto", "comma-separated query keywords, or \"auto\" for the 6 most popular")
		p         = flag.Int("p", 3, "group size")
		k         = flag.Int("k", 2, "tenuity constraint (pairwise distance must exceed k)")
		n         = flag.Int("n", 3, "number of groups")
		alg       = flag.String("alg", "vkc-deg", "algorithm: vkc-deg, vkc, qkc, brute")
		indexKind = flag.String("index", "nlrnl", "distance index: bfs, nl, nlrnl")
		diverse   = flag.Bool("diverse", false, "run the diversified DKTG-Greedy query")
		greedy    = flag.Bool("greedy", false, "run the approximate greedy search instead of an exact algorithm")
		gamma     = flag.Float64("gamma", 0.5, "DKTG coverage/diversity weight")
		maxNodes  = flag.Int64("maxnodes", 50_000_000, "search node budget (0 = unlimited)")
		verbose   = flag.Bool("v", false, "debug-level structured logging (per-search start/done records, index builds)")
		statsJSON = flag.Bool("stats-json", false, "dump the full SearchStats as one JSON object on stdout")
		debugAddr = flag.String("debug-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address and stay up after answering")
		trace     = flag.Bool("trace", false, "print the run's trace as an ASCII waterfall on stderr after answering")
		traceOut  = flag.String("trace-export", "", "append the run's trace to this file as OTLP/JSON lines")
		explain   = flag.Bool("explain", false, "print the search explain plan (per-depth prune/filter breakdown, bound trajectory) on stdout after the groups")
	)
	flag.Parse()

	cliutil.MustChoice("ktgquery", "alg", *alg, "vkc-deg", "vkc", "qkc", "brute")
	cliutil.MustChoice("ktgquery", "index", *indexKind, "bfs", "nl", "nlrnl")
	if *preset != "" {
		cliutil.MustChoice("ktgquery", "preset", *preset, ktg.Presets()...)
		cliutil.MustScale("ktgquery", *scale)
	}

	// Ctrl-C (or SIGTERM) cancels the running search via the context:
	// the core notices at its next throttled check and hands back the
	// best groups found so far, which are printed with a warning.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Each run gets a request ID, carried on the context and stamped on
	// every log line (errors included), so a run's output correlates
	// with flight-recorder records and metrics scraped via -debug-addr.
	requestID := ktg.NewRequestID()
	ctx = ktg.WithRequestID(ctx, requestID)

	level := slog.LevelInfo
	if *verbose {
		level = slog.LevelDebug
	}
	logger := obs.NewTextLogger(os.Stderr, level).With("request_id", requestID)
	ktg.SetDefaultLogger(logger)

	// With -trace or -trace-export the run executes under a root span in
	// a private trace store (rate 1, nothing is sampled away); the core's
	// compile/candidates/explore phases land as child spans.
	var (
		traces   *obs.TraceStore
		runSpan  *obs.Span
		finished = func() {}
	)
	if *trace || *traceOut != "" {
		traces = obs.NewTraceStore(obs.TraceStoreConfig{})
		if *traceOut != "" {
			exp, err := obs.NewTraceExporter(*traceOut, "ktgquery")
			if err != nil {
				fatal(logger, err)
			}
			defer exp.Close()
			traces.SetExporter(exp)
		}
		ctx = obs.ContextWithTraceStore(ctx, traces)
		ctx, runSpan = obs.StartSpan(ctx, "ktgquery run")
		runSpan.SetAttr("request_id", requestID)
		finished = func() {
			runSpan.End()
			if *trace {
				if t := traces.Get(runSpan.TraceID()); t != nil {
					fmt.Fprint(os.Stderr, obs.Waterfall(t))
				}
			}
			logger.Info("trace recorded", "trace_id", runSpan.TraceID())
		}
	}

	if *debugAddr != "" {
		addr, _, err := ktg.StartDebugServer(*debugAddr)
		if err != nil {
			fatal(logger, err)
		}
		logger.Info("debug server listening", "addr", addr,
			"endpoints", "/metrics /debug/vars /debug/pprof/")
	}

	net, err := loadNetwork(*preset, *scale, *edges, *attrs)
	if err != nil {
		fatal(logger, err)
	}
	net.SetLogger(logger)
	logger.Info("network loaded", "name", net.Name(),
		"vertices", net.NumVertices(), "edges", net.NumEdges(), "keywords", net.VocabularySize())

	var kws []string
	if *kwList == "auto" {
		kws = net.PopularKeywords(6)
	} else {
		for _, kw := range strings.Split(*kwList, ",") {
			if kw = strings.TrimSpace(kw); kw != "" {
				kws = append(kws, kw)
			}
		}
	}
	q := ktg.Query{Keywords: kws, GroupSize: *p, Tenuity: *k, TopN: *n}
	logger.Info("query", "keywords", kws, "p", *p, "k", *k, "n", *n)

	opts := ktg.SearchOptions{MaxNodes: *maxNodes, Context: ctx, Logger: logger}
	var probe *ktg.Probe
	if *explain {
		probe = &ktg.Probe{}
		opts.Probe = probe
	}
	switch *alg {
	case "vkc-deg":
		opts.Algorithm = ktg.AlgVKCDeg
	case "vkc":
		opts.Algorithm = ktg.AlgVKC
	case "qkc":
		opts.Algorithm = ktg.AlgQKC
	case "brute":
		opts.Algorithm = ktg.AlgBruteForce
	}
	start := time.Now()
	switch *indexKind {
	case "bfs":
		opts.Index = net.NewBFSIndex()
	case "nl":
		idx, err := net.BuildNL(0)
		if err != nil {
			fatal(logger, err)
		}
		opts.Index = idx
	case "nlrnl":
		idx, err := net.BuildNLRNL()
		if err != nil {
			fatal(logger, err)
		}
		opts.Index = idx
	}
	logger.Info("index ready", "index", opts.Index.Name(), "dur", time.Since(start).Round(time.Millisecond))

	switch {
	case *greedy:
		start = time.Now()
		res, err := net.SearchGreedyWith(q, opts, 0)
		reportErr(logger, err)
		logger.Info("greedy answered", "dur", time.Since(start).Round(time.Microsecond),
			"seeds", res.Stats.Nodes, "note", "approximate")
		emitStats(logger, *statsJSON, res.Stats)
		printGroups(net, res.Groups)
	case *diverse:
		start = time.Now()
		dr, err := net.SearchDiverse(q, ktg.DiverseOptions{SearchOptions: opts, Gamma: *gamma})
		reportErr(logger, err)
		logger.Info("DKTG-Greedy answered", "dur", time.Since(start).Round(time.Microsecond),
			"score", dr.Score, "diversity", dr.Diversity, "min_coverage", dr.MinQKC)
		emitStats(logger, *statsJSON, dr.Stats)
		printGroups(net, dr.Groups)
	default:
		start = time.Now()
		res, err := net.Search(q, opts)
		reportErr(logger, err)
		logger.Info("search answered", "alg", opts.Algorithm.String(),
			"dur", time.Since(start).Round(time.Microsecond),
			"nodes", res.Stats.Nodes, "pruned", res.Stats.Pruned,
			"distance_checks", res.Stats.DistanceChecks, "feasible", res.Stats.Feasible,
			"compile", res.Stats.CompileTime, "candidates", res.Stats.CandidateTime,
			"explore", res.Stats.ExploreTime)
		emitStats(logger, *statsJSON, res.Stats)
		printGroups(net, res.Groups)
	}
	if probe != nil {
		if *alg == "brute" {
			logger.Warn("brute-force search does not support -explain; no plan recorded")
		} else {
			fmt.Print(probe.Explain().Render())
		}
	}
	finished()

	if *debugAddr != "" {
		logger.Info("answering done; debug server still serving (interrupt to exit)")
		<-ctx.Done()
		stop()
	}
}

// emitStats dumps the full stats struct (including the timing breakdown
// and per-depth histograms) as one JSON object on stdout.
func emitStats(logger *slog.Logger, enabled bool, s ktg.SearchStats) {
	if !enabled {
		return
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(s); err != nil {
		logger.Error("encoding stats", "err", err)
	}
}

func loadNetwork(preset string, scale float64, edges, attrs string) (*ktg.Network, error) {
	if preset != "" {
		return ktg.GeneratePreset(preset, scale)
	}
	if edges == "" {
		return nil, errors.New("need -preset or -edges/-attrs")
	}
	ef, err := os.Open(edges)
	if err != nil {
		return nil, err
	}
	defer ef.Close()
	var af *os.File
	if attrs != "" {
		af, err = os.Open(attrs)
		if err != nil {
			return nil, err
		}
		defer af.Close()
		return ktg.LoadNetwork(ef, af)
	}
	return ktg.LoadNetwork(ef, nil)
}

func printGroups(net *ktg.Network, groups []ktg.Group) {
	if len(groups) == 0 {
		fmt.Println("no feasible group satisfies the constraints")
		return
	}
	for i, g := range groups {
		fmt.Printf("group %d: coverage %.2f, covered %v\n", i+1, g.QKC, g.Covered)
		for _, v := range g.Members {
			fmt.Printf("  u%-8d keywords %v\n", v, net.Keywords(v))
		}
	}
}

func reportErr(logger *slog.Logger, err error) {
	if err == nil {
		return
	}
	if errors.Is(err, ktg.ErrBudgetExhausted) {
		logger.Warn("node budget exhausted; result may be partial")
		return
	}
	if errors.Is(err, context.Canceled) {
		logger.Warn("search interrupted; printing the best groups found so far")
		return
	}
	fatal(logger, err)
}

func fatal(logger *slog.Logger, err error) {
	logger.Error("ktgquery failed", "err", err)
	os.Exit(1)
}
