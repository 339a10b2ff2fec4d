package ktg

import (
	"fmt"
	"io"
	"log/slog"
	"os"
	"time"

	"ktg/internal/graph"
	"ktg/internal/index"
	"ktg/internal/live"
	"ktg/internal/obs"
	"ktg/internal/persist"
	"ktg/internal/wal"
)

// WALConfig configures durable live mutation: a per-dataset write-ahead
// log (see internal/wal) that makes acked edge batches survive crashes
// and restarts.
type WALConfig struct {
	// Dir is this dataset's WAL directory, created if absent. A log
	// recorded against a different base graph is refused.
	Dir string
	// Sync is the fsync policy: "always" (default; an ack means the
	// batch survives power loss), "interval" (background fsync every
	// SyncInterval), or "off" (durability left to the OS).
	Sync string
	// SyncInterval is the background fsync period for Sync "interval"
	// (default 100ms).
	SyncInterval time.Duration
	// CheckpointEvery snapshots the live graph and retires superseded
	// WAL segments every N epochs; 0 disables checkpointing and the log
	// grows without bound.
	CheckpointEvery uint64
	// SegmentMaxBytes rotates WAL segments at this size (default 4 MiB).
	SegmentMaxBytes int64
	// Progress, when set, observes recovery replay as (applied, total)
	// record counts — the feed for /readyz's records_remaining while
	// replay is in progress.
	Progress func(applied, total int)
	// Logger receives recovery and checkpoint records (nil = process
	// default).
	Logger *slog.Logger
}

// RecoveryStats reports what opening a durable LiveNetwork recovered.
// The zero Recovered/RecordsReplayed case is a fresh log. The struct is
// JSON-tagged because /readyz and /v1/datasets surface it verbatim.
type RecoveryStats struct {
	// Epoch is the epoch republished after recovery — exactly the last
	// acked pre-crash epoch.
	Epoch uint64 `json:"epoch"`
	// CheckpointEpoch is the epoch of the checkpoint recovery started
	// from (0 = replayed from the base snapshot).
	CheckpointEpoch uint64 `json:"checkpoint_epoch,omitempty"`
	// RecordsReplayed / OpsReplayed count the WAL batches and edge ops
	// re-applied on top of the starting snapshot.
	RecordsReplayed int `json:"records_replayed"`
	OpsReplayed     int `json:"ops_replayed"`
	// TornTail reports that the final segment ended in an interrupted
	// append, truncated away; TornBytes is how much was dropped. Only
	// unacked bytes can be torn under the "always" sync policy.
	TornTail  bool  `json:"torn_tail,omitempty"`
	TornBytes int64 `json:"torn_bytes,omitempty"`
	// DurationMS is wall-clock recovery time in milliseconds.
	DurationMS int64 `json:"duration_ms"`
}

// NewLiveNetworkDurable is NewLiveNetwork plus a write-ahead log: it
// opens (or initializes) the WAL in cfg.Dir, rebuilds the last durable
// state — checkpoint snapshot if one exists, base network otherwise,
// plus a replay of every complete log record — republishes the exact
// pre-crash epoch, and only then starts accepting mutations, each acked
// strictly after its record is durable. The supplied index must match
// the kind the log's checkpoints were rebuilt for (it is used directly
// when recovery starts from the base graph, and its kind/parameters are
// reused to rebuild over a checkpoint graph).
func NewLiveNetworkDurable(n *Network, idx DistanceIndex, cfg WALConfig) (*LiveNetwork, *RecoveryStats, error) {
	start := time.Now()
	logger := cfg.Logger
	if logger == nil {
		logger = obs.Logger()
	}
	pol, err := wal.ParseSyncPolicy(cfg.Sync)
	if err != nil {
		return nil, nil, err
	}
	l, err := wal.Open(wal.Config{
		Dir:             cfg.Dir,
		Base:            persist.FingerprintOf(n.g),
		Sync:            pol,
		SyncInterval:    cfg.SyncInterval,
		SegmentMaxBytes: cfg.SegmentMaxBytes,
	})
	if err != nil {
		return nil, nil, err
	}

	stats := &RecoveryStats{}
	var r live.Replica
	startEpoch := uint64(1)
	if cp, ok := l.LastCheckpoint(); ok {
		g, err := readCheckpointGraph(cp.Path, cp.Graph)
		if err != nil {
			l.Close()
			return nil, nil, err
		}
		if r, err = rebuildReplica(n, g, idx); err != nil {
			l.Close()
			return nil, nil, err
		}
		startEpoch = cp.Epoch
		stats.CheckpointEpoch = cp.Epoch
	} else {
		if r, err = newReplica(n, idx); err != nil {
			l.Close()
			return nil, nil, err
		}
	}

	mgr := live.NewManagerAt(r, startEpoch)
	rs, err := l.Replay(func(rec wal.Record) error {
		ops := make([]live.EdgeOp, len(rec.Ops))
		for i, op := range rec.Ops {
			ops[i] = live.EdgeOp{Insert: op.Insert, U: Vertex(op.U), V: Vertex(op.V)}
		}
		res, err := mgr.Apply(ops)
		if err != nil {
			return err
		}
		// The log stores only effective ops, so a faithful replay applies
		// every one of them and publishes exactly the recorded epoch.
		if !res.Swapped || res.Epoch != rec.Epoch || res.Applied != len(ops) {
			return fmt.Errorf("record published epoch %d with %d/%d ops applied, log says epoch %d: %w",
				res.Epoch, res.Applied, len(ops), rec.Epoch, wal.ErrReplayDiverged)
		}
		return nil
	}, cfg.Progress)
	if err != nil {
		l.Close()
		return nil, nil, err
	}

	// Every mutation from here on is acked only after its record is
	// durable under the configured sync policy.
	mgr.SetDurability(func(epoch uint64, applied []live.EdgeOp) error {
		ops := make([]wal.EdgeOp, len(applied))
		for i, op := range applied {
			ops[i] = wal.EdgeOp{Insert: op.Insert, U: uint32(op.U), V: uint32(op.V)}
		}
		return l.Append(wal.Record{Epoch: epoch, Ops: ops})
	})

	ln := &LiveNetwork{base: n, mgr: mgr, wal: l, checkpointEvery: cfg.CheckpointEvery, logger: logger}
	ln.view.Store(ln.derive(mgr.Current()))
	stats.Epoch = mgr.Epoch()
	stats.RecordsReplayed = rs.Records
	stats.OpsReplayed = rs.Ops
	stats.TornTail = rs.TornTail
	stats.TornBytes = rs.TornBytes
	stats.DurationMS = time.Since(start).Milliseconds()
	ln.recovery = stats
	logger.Info("wal recovery complete",
		"dir", cfg.Dir, "epoch", stats.Epoch, "checkpoint_epoch", stats.CheckpointEpoch,
		"records_replayed", stats.RecordsReplayed, "ops_replayed", stats.OpsReplayed,
		"torn_tail", stats.TornTail, "torn_bytes", stats.TornBytes,
		"duration", time.Since(start).Round(time.Millisecond))
	return ln, stats, nil
}

// newReplica builds the writer replica for the base network, reusing
// the already-built index (NewLiveNetwork's construction rules).
func newReplica(n *Network, idx DistanceIndex) (live.Replica, error) {
	switch x := idx.(type) {
	case nil:
		return live.NewGraphReplica(graph.MutableFrom(n.g)), nil
	case *NLIndex:
		return live.NewNLReplica(graph.MutableFrom(n.g), x.nl), nil
	case *NLRNLIndex:
		return live.NewNLRNLReplica(x.x), nil
	default:
		return nil, fmt.Errorf("ktg: index %q does not support live mutation", idx.Name())
	}
}

// rebuildReplica builds the writer replica for a checkpoint graph g,
// reconstructing the same index kind (and parameters) idx carries. The
// base index itself is unusable here: it describes epoch 1's topology,
// not the checkpoint's.
func rebuildReplica(n *Network, g *graph.Graph, idx DistanceIndex) (live.Replica, error) {
	switch x := idx.(type) {
	case nil:
		return live.NewGraphReplica(graph.MutableFrom(g)), nil
	case *NLIndex:
		nl, err := index.BuildNL(g, index.NLOptions{H: x.nl.H(), Logger: n.logger})
		if err != nil {
			return nil, fmt.Errorf("ktg: rebuilding NL over checkpoint graph: %w", err)
		}
		return live.NewNLReplica(graph.MutableFrom(g), nl), nil
	case *NLRNLIndex:
		x2, err := index.BuildNLRNLWith(g, index.NLRNLOptions{Logger: n.logger})
		if err != nil {
			return nil, fmt.Errorf("ktg: rebuilding NLRNL over checkpoint graph: %w", err)
		}
		return live.NewNLRNLReplica(x2), nil
	default:
		return nil, fmt.Errorf("ktg: index %q does not support live mutation", idx.Name())
	}
}

// readCheckpointGraph decodes a checkpoint snapshot and verifies it is
// exactly the graph the WAL manifest committed to.
func readCheckpointGraph(path string, want persist.Fingerprint) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("ktg: opening wal checkpoint: %w", err)
	}
	defer f.Close()
	g, err := graph.ReadBinary(f)
	if err != nil {
		return nil, fmt.Errorf("ktg: reading wal checkpoint %s: %w", path, err)
	}
	if got := persist.FingerprintOf(g); got != want {
		return nil, fmt.Errorf("ktg: wal checkpoint %s decodes to graph %v, manifest committed %v: %w",
			path, got, want, persist.ErrFingerprintMismatch)
	}
	return g, nil
}

// maybeCheckpoint runs under ln.mu after a swap: every CheckpointEvery
// epochs it snapshots the just-published graph and retires superseded
// segments. Failure is logged, not fatal — durability is already
// guaranteed by the log; a missed checkpoint only costs log growth.
func (ln *LiveNetwork) maybeCheckpoint(v *live.View) {
	if ln.wal == nil || ln.checkpointEvery == 0 || v.Epoch%ln.checkpointEvery != 0 {
		return
	}
	start := time.Now()
	err := ln.wal.Checkpoint(v.Epoch, persist.FingerprintOf(v.Graph), func(w io.Writer) error {
		return graph.WriteBinary(w, v.Graph)
	})
	if err != nil {
		ln.logf().Warn("wal checkpoint failed; log will keep growing until one succeeds",
			"epoch", v.Epoch, "err", err)
		return
	}
	ln.logf().Info("wal checkpoint committed", "epoch", v.Epoch,
		"duration", time.Since(start).Round(time.Millisecond))
}

func (ln *LiveNetwork) logf() *slog.Logger {
	if ln.logger != nil {
		return ln.logger
	}
	return obs.Logger()
}

// Recovery returns the stats recorded when this LiveNetwork was opened
// with NewLiveNetworkDurable, or nil for a purely in-memory handle.
func (ln *LiveNetwork) Recovery() *RecoveryStats { return ln.recovery }

// Durable reports whether mutations are written ahead to a WAL.
func (ln *LiveNetwork) Durable() bool { return ln.wal != nil }

// Close flushes and releases the WAL (a no-op for in-memory handles).
// The LiveNetwork must not be mutated afterwards; reads stay valid.
func (ln *LiveNetwork) Close() error {
	if ln.wal == nil {
		return nil
	}
	return ln.wal.Close()
}
