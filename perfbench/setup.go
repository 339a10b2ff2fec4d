package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"ktg"
	"ktg/internal/client"
	"ktg/internal/gen"
	"ktg/internal/server"
	"ktg/internal/shard"
	"ktg/internal/workload"
)

const (
	preset = "brightkite"
	// A run sets its system up at least minSetups times and until
	// setupBudget has passed; setup_s is the median, and the last
	// set-up system is the one measured.
	minSetups   = 3
	setupBudget = time.Second
)

// quiet is the logger handed to servers and clients: records are
// formatted as in production but written nowhere.
var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

// dataset is one generated network with its NLRNL index.
type dataset struct {
	nw       *ktg.Network
	idx      *ktg.NLRNLIndex
	genTime  time.Duration
	buildDur time.Duration
}

func buildDataset(scale float64) (*dataset, error) {
	t0 := time.Now()
	nw, err := ktg.GeneratePreset(preset, scale)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	idx, err := nw.BuildNLRNL()
	if err != nil {
		return nil, err
	}
	return &dataset{nw: nw, idx: idx, genTime: t1.Sub(t0), buildDur: time.Since(t1)}, nil
}

// httpNode is one in-process HTTP listener on loopback.
type httpNode struct {
	hs   *http.Server
	done chan struct{}
	url  string
}

func listen(h http.Handler) (*httpNode, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	n := &httpNode{hs: &http.Server{Handler: h}, done: make(chan struct{}), url: "http://" + ln.Addr().String()}
	go func() {
		defer close(n.done)
		_ = n.hs.Serve(ln) // returns http.ErrServerClosed after close
	}()
	return n, nil
}

func (n *httpNode) close() {
	_ = n.hs.Close() // the benchmark is done with every connection
	<-n.done
}

// system is one set-up deployment: datasets, the HTTP nodes serving
// them (none for the in-process workload) and a client to the front.
type system struct {
	data  []*dataset
	live  *ktg.LiveNetwork
	wal   string
	nodes []*httpNode // shard servers, or the serve-mixed server
	coord *httpNode
	taps  []*handlerTap // server (or shard) taps, then the coordinator's
	cl    *client.Client

	setup time.Duration
}

func (s *system) close() {
	if s.coord != nil {
		s.coord.close()
	}
	for _, n := range s.nodes {
		n.close()
	}
	if s.live != nil {
		_ = s.live.Close() // the WAL directory is removed next
	}
	if s.wal != "" {
		_ = os.RemoveAll(s.wal)
	}
}

// kind selects what setUp builds.
type kind int

const (
	inProcess kind = iota // dataset + index only
	mutable               // one server over a durable live dataset
	fleet                 // coordinator over two shard servers
)

// setUp builds a system and times it until the front answers its first
// request. traced installs handler taps (recording stays off until a
// traced phase turns it on).
func setUp(k kind, scale float64, workDir string, traced bool, seed int64) (*system, error) {
	start := time.Now()
	sys := &system{}
	shards := 1
	if k == fleet {
		shards = 2
	}
	sys.data = make([]*dataset, shards)
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for i := range sys.data {
		wg.Add(1)
		// Shards build side by side, as separate machines would.
		go func(i int) {
			defer wg.Done()
			sys.data[i], errs[i] = buildDataset(scale)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if k == inProcess {
		sys.setup = time.Since(start)
		return sys, nil
	}
	if k == mutable {
		dir, err := os.MkdirTemp(workDir, "wal-")
		if err != nil {
			return nil, err
		}
		sys.wal = dir
		d := sys.data[0]
		// The checkpoint period is ktgserver's default.
		ln, _, err := ktg.NewLiveNetworkDurable(d.nw, d.idx, ktg.WALConfig{
			Dir: filepath.Join(dir, preset), Sync: "always", CheckpointEvery: 64, Logger: quiet,
		})
		if err != nil {
			sys.close()
			return nil, err
		}
		sys.live = ln
	}
	for _, d := range sys.data {
		srv, err := server.New(server.Config{Logger: quiet},
			&server.Dataset{Name: preset, Network: d.nw, Index: d.idx, Live: sys.live})
		if err != nil {
			sys.close()
			return nil, err
		}
		var h http.Handler = srv.Handler()
		if traced {
			tap := newHandlerTap(h)
			sys.taps = append(sys.taps, tap)
			h = tap
		}
		n, err := listen(h)
		if err != nil {
			sys.close()
			return nil, err
		}
		sys.nodes = append(sys.nodes, n)
	}
	front := sys.nodes[0].url
	if k == fleet {
		urls := make([]string, len(sys.nodes))
		for i, n := range sys.nodes {
			urls[i] = n.url
		}
		co, err := shard.New(shard.Config{Shards: urls, Logger: quiet,
			Client: client.Config{Logger: quiet, Seed: seed}})
		if err != nil {
			sys.close()
			return nil, err
		}
		var h http.Handler = co.Handler()
		if traced {
			tap := newHandlerTap(h)
			sys.taps = append(sys.taps, tap)
			h = tap
		}
		if sys.coord, err = listen(h); err != nil {
			sys.close()
			return nil, err
		}
		front = sys.coord.url
	}
	cl, err := client.New(client.Config{BaseURL: front, Logger: quiet, Seed: seed})
	if err != nil {
		sys.close()
		return nil, err
	}
	if err := cl.Health(context.Background()); err != nil {
		sys.close()
		return nil, fmt.Errorf("first request: %w", err)
	}
	sys.cl = cl
	sys.setup = time.Since(start)
	return sys, nil
}

// setUpMeasured sets the system up repeatedly, keeps the last one and
// reports the medians of setup, generation and index build times, the
// index size and the live heap after a forced GC.
func setUpMeasured(r *report, k kind, scale float64, workDir string, traced bool, seed int64) (*system, error) {
	var setups, gens, builds []float64
	var sys *system
	begin := time.Now()
	for i := 0; i < minSetups || time.Since(begin) < setupBudget; i++ {
		if sys != nil {
			sys.close()
		}
		runtime.GC()
		var err error
		if sys, err = setUp(k, scale, workDir, traced, seed); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, sys.setup.Seconds())
		for _, d := range sys.data {
			gens = append(gens, d.genTime.Seconds())
			builds = append(builds, d.buildDur.Seconds())
		}
	}
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.set("setup_s", medianF(setups))
	r.set("setup_heap_mb", float64(m.HeapAlloc)/(1<<20))
	r.set("gen.generate_s", medianF(gens))
	r.set("index.build_s", medianF(builds))
	r.set("index.space_mb", float64(sys.data[0].idx.SpaceBytes())/(1<<20))
	r.notef("setup: %d runs, median %.4f s, min %.4f s, max %.4f s; dataset %s@%g: %d vertices, %d edges",
		len(setups), medianF(setups), slices.Min(setups), slices.Max(setups),
		preset, scale, sys.data[0].nw.NumVertices(), sys.data[0].nw.NumEdges())
	return sys, nil
}

// queryGen draws the workload's query keyword sets. The dataset is
// regenerated on the benchmark's side (generation is deterministic), so
// the program only ever sees the generated queries.
func queryGen(scale float64, seed int64) (*gen.Dataset, *workload.Generator, error) {
	ds, err := gen.GeneratePreset(preset, scale)
	if err != nil {
		return nil, nil, err
	}
	return ds, workload.NewGenerator(ds, seed), nil
}

// distinctQueries draws n keyword sets of size w, no two the same.
func distinctQueries(g *workload.Generator, n, w int) ([][]string, error) {
	seen := make(map[string]bool, n)
	out := make([][]string, 0, n)
	for draws := 0; len(out) < n; draws++ {
		if draws == 100*n {
			return nil, fmt.Errorf("found only %d distinct queries of %d keywords in %d draws", len(out), w, draws)
		}
		kws := g.KeywordNames(g.QueryKeywords(w))
		sorted := slices.Clone(kws)
		slices.Sort(sorted)
		key := strings.Join(sorted, ",")
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, kws)
	}
	return out, nil
}
