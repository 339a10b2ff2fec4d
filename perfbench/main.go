package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// config is one benchmark invocation.
type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
	work    string // directory for the WAL files, inside the checkout
}

// defaultSeed is the seed used when --seed is not given.
const defaultSeed = 1

var workloads = map[string]func(config) (*report, error){
	"paper-uncapped": runPaper,
	"serve-mixed":    runServeMixed,
	"fleet-2shard":   runFleet,
}

// wrongAnswer marks a verification failure: the run is not correct.
type wrongAnswer struct{ err error }

func (w *wrongAnswer) Error() string { return "wrong answer: " + w.err.Error() }

func wrong(err error) error { return &wrongAnswer{err: err} }

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: paper-uncapped, serve-mixed, fleet-2shard")
		seed    = flag.Int64("seed", defaultSeed, "seed of the generated queries and mutations")
		seconds = flag.Float64("seconds", 10, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 the end-to-end metrics")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		os.Exit(2)
	}
	work := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg := config{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		work:    work,
	}
	r, err := run(cfg)
	var wa *wrongAnswer
	if err != nil && !errors.As(err, &wa) {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	for _, n := range r.notes {
		fmt.Println(n)
	}
	res := result{Correct: wa == nil, Attempted: r.attempted, Failed: r.failed}
	if cfg.trace {
		res.Metrics = r.metrics(perLayer)
	} else {
		res.Metrics = r.metrics(endToEnd)
	}
	if wa != nil {
		fmt.Println("perfbench:", wa)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if wa != nil {
		os.Exit(1)
	}
}
