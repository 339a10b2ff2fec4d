// Command perfbench is the KTG benchmark: one program that runs three
// workloads against the ktg module, verifies every answer, and prints
// the metrics a user of the system sees (an untraced run) or the
// metrics of single layers (a traced run) as one JSON line.
//
// Usage, from the root of the repository:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// run.sh builds this directory (a module of its own that replaces ktg
// with the parent directory, so it may import ktg/internal/...) into
// .bench_build/ and runs it. The default seed is 1. The same seed gives
// the same queries, mutations and work counters; every workload takes
// the dataset from the deterministic preset generator.
//
// # Workloads
//
// At most two client goroutines run at a time (the reference box has
// two CPUs). Each workload runs 16 unmeasured ops first, so that client
// connections are open and first-use costs are paid before timing.
//
//   - paper-uncapped: Network.Search called in process by one
//     closed-loop caller on brightkite@0.005 with NLRNL, KTG-VKC-DEG and
//     the paper's uncapped Theorem 2 bound, p=3 k=2 |W_Q|=6 N=7. This is
//     the paper's cost model: exploration is the whole cost, and HTTP,
//     the cache and mutation do nothing. Core work (candidate ordering,
//     the bound, k-line filtering) and index.Within show here first. The
//     scale is half the 0.01 first proposed for it: at 0.01 a query
//     costs about 320 ms with a coefficient of variation of 0.5, so a
//     run of seconds holds too few queries for its figures to repeat
//     across seeds; at 0.005 a query costs about 30 ms.
//   - serve-mixed: an in-process server on a durable LiveNetwork over
//     brightkite@0.02 with NLRNL and a WAL with Sync "always" under
//     .bench_build/, reached over loopback HTTP through internal/client.
//     One serial closed-loop client runs one seeded op sequence: 10% of
//     ops are edge batches of one or two edges, the rest are reads drawn
//     from a pool of 512 queries with Zipf skew 1.1, so the cache hits
//     (about a fifth of the reads) and mutation-scoped invalidation
//     matters. The median read is then a miss well inside the spread of
//     miss costs; with a pool of 48 at skew 1.2 about 40% hit, the
//     median sat at the cheap edge of the misses and jumped by a third
//     from seed to seed. Every epoch and cache outcome repeats for a
//     seed. The process runs on one CPU (GOMAXPROCS=1, so the server has
//     one worker): with a serial client a second CPU only adds cross-CPU
//     wakeups, and with two the reads were slower and no steadier. The
//     result cache, §V-B apply, epoch swap and WAL append/fsync are
//     measured here, and fleet-2shard bypasses all of them. Scale 0.1 is
//     not used: there one edge batch affects nearly every vertex and
//     applies slower than a full NLRNL rebuild.
//   - fleet-2shard: shard.Coordinator in front of two in-process shard
//     servers, reached over loopback HTTP through internal/client, on
//     brightkite@0.1 with server defaults (capped bound, vkc-deg, p=5
//     k=2 |W_Q|=6 N=7). Every query is distinct, so the caches never hit.
//     An open-loop phase at 15 queries/s (about a fifth of the
//     throughput) over a third of the run gives the exact counters, the
//     generator lag and a fixed-rate latency, timed from each request's
//     due time, in the printed notes; a closed-loop phase with two
//     callers over the other two thirds gives the end-to-end latencies
//     and the throughput. On the shared host the open-loop median moved
//     by half from run to run at 15 queries/s, where idle CPUs are slow
//     to wake, and by more at 30, where requests queue, while the closed
//     loop moved by a sixth. This is the served path, with its
//     per-request fixed costs (compile, candidate build, HTTP, JSON),
//     and the only workload through internal/shard; a core change that
//     helps paper-uncapped must not cost time here.
//
// A single server over the static dataset is not a workload of its own:
// its path is the fleet's without the coordinator, and on the shared
// two-CPU host the benchmark's time is better spent on longer runs of
// the three workloads above.
//
// # Metrics
//
// An untraced run (--trace 0) reports, for every workload:
//
//	setup_s          dataset generation, index build, WAL open and server/fleet start until the
//	                 first answered request; the median of at least three set-ups, repeated
//	                 for at least a second
//	setup_heap_mb    live heap after the last set-up and a forced GC
//	latency_p50_ms   median query latency (fleet-2shard: the closed-loop phase; serve-mixed: the
//	                 reads)
//	latency_tail_ms  p90: on the ladder p50, p90, p99, p99.9 the highest with at least ten
//	                 samples beyond it; the run prints the sample counts
//	throughput_ops   completed ops per second in the closed-loop phase
//	alloc_kb_per_op  process-wide Go heap bytes allocated per completed op
//	ok_frac          1 - failed ops / attempted ops
//
// The latencies are quantiles over all of a phase's samples, and the
// throughput is the ops completed over the phase's duration.
// fleet-2shard alternates three open-loop and closed-loop rounds, so that
// both phases sample the host over the whole run.
//
// A failed op is a transport error, a non-2xx answer (429 included), or
// a partial or degraded answer (censored by a deadline or budget). The
// counts go to the result's attempted and failed fields, and failed_frac
// is a traced-run metric: the JSON contract forbids end-to-end metrics
// that can be 0, so the end-to-end form is ok_frac. For the same reason
// the acked-mutation latencies mutation_p50_ms and mutation_tail_ms,
// which exist on serve-mixed only, are traced-run metrics; on
// serve-mixed a slower write path also lowers throughput_ops, since the
// ops are serial. A wrong answer is not a failure: it fails the run.
//
// A traced run (--trace 1) repeats the untraced phases for the exact
// counters, then replays the closed-loop ops with the program's own
// trace store (obs.SetDefaultTraceStore) and the benchmark's wrappers
// on: a timing wrapper around each server's and the coordinator's
// http.Handler, a counting DistanceIndex wrapper that times one call in
// 64 (paper-uncapped), and timers around each client call. It prints a
// self-time table per layer (a span's time minus the part its child
// spans cover; in the fleet the shards of one query share the time they
// overlap equally, so the table still sums to the op's wall time), the
// unattributed share, and the tracing overhead. Layers report 0 where a
// workload does not reach them. Which layer metric should move which
// end-to-end metric, and where:
//
//	metric                                     source                            moves             on
//	core.{nodes,pruned,filtered,feasible,      SearchStats over a fixed prefix   none: exact work  all (serve-mixed: the
//	  checks}_per_query                        of ops                            counters          cache misses)
//	core.filter_hit_frac                       filtered / distance checks        latency_p50_ms    paper-uncapped
//	core.compile_ms, core.candidates_ms        SearchStats                       latency_p50_ms    fleet-2shard, serve-mixed
//	core.explore_ms, core.ns_per_node,         SearchStats                       latency_p50_ms,   paper-uncapped, fleet-2shard
//	  core.ns_per_check                                                          throughput_ops
//	core.explore_self_ms                       explore - index.within (traced)   throughput_ops    paper-uncapped
//	index.within_calls_per_query,              DistanceIndex wrapper (traced)    latency_p50_ms    paper-uncapped
//	  index.within_ns
//	index.build_s, index.space_mb,             timed BuildNLRNL / SpaceBytes /   setup_s,          all
//	  gen.generate_s                           GeneratePreset                    setup_heap_mb
//	server.handler_ms, server.self_ms          Server.Handler() wrapper; handler latency_p50_ms    fleet-2shard, serve-mixed
//	                                           - queue wait - search span
//	server.queue_wait_ms                       queue.wait spans                  latency_tail_ms   fleet-2shard, serve-mixed
//	server.cache_hit_frac                      Response.Cache over the prefix    latency_p50_ms,   serve-mixed (0 on fleet-2shard)
//	                                                                             throughput_ops
//	server.{rejected,partial,degraded}_frac    status and response flags         ok_frac           all served
//	client.overhead_ms, client.retries_per_op  client call - handler; Stats()    latency_p50_ms    fleet-2shard, serve-mixed
//	shard.coord_self_ms,                       coordinator and shard handler     latency_p50_ms,   fleet-2shard
//	  shard.slowest_shard_ms, shard.skew       wrappers                          latency_tail_ms
//	shard.work_amplification                   sum of shard checks / single-node throughput_ops    fleet-2shard
//	                                           checks over the open-loop queries
//	live.apply_ms, live.swap_ms                mutate.apply / mutate.swap spans  mutation_p50_ms   serve-mixed
//	live.affected_frac,                        MutationResponse over the prefix  mutation_p50_ms,  serve-mixed
//	  live.cache_invalidated_per_mutation                                        cache_hit_frac
//	wal.fsync_ms, wal.bytes_per_mutation,      ktg_wal_* deltas on obs.Default() mutation_tail_ms  serve-mixed
//	  wal.fsyncs_per_mutation
//	mutation_p50_ms, mutation_tail_ms          acked /v1/edges latency           throughput_ops    serve-mixed
//	failed_frac                                failed / attempted                ok_frac           all
//	bench.generator_lag_ms                     open-loop send lateness           validity          fleet-2shard
//	bench.trace_overhead_frac                  1 - traced / untraced throughput  validity          all
//	bench.unattributed_frac                    benchmark-loop self time / op     validity          all
//	bench.residual_frac                        1 - sum of layer self times /     validity          all
//	                                           untraced mean op
//
// The core.*_per_query counters, index.within_calls_per_query,
// shard.work_amplification, live.affected_frac and, on serve-mixed,
// server.cache_hit_frac repeat exactly for a seed. Each run also prints
// answers_digest and work_digest over the same prefix, so a later change
// can show byte-identical answers and work, tie-break included.
//
// # Verification
//
// Every answer is checked outside the timed region. paper-uncapped: each
// query's coverage vector equals the capped-bound search's (both are
// exact), and every group has p distinct members, no pair within k hops
// on a BFS audit, and exactly the coverage it claims. fleet-2shard: the
// coordinator's groups equal a direct single-node Network.Search byte
// for byte.
// serve-mixed: the op sequence is replayed on a fresh in-memory
// LiveNetwork; each acked batch must give the same epoch and effect, and
// each read must equal a direct search on the view of the epoch the
// response names. The traced replay is checked the same way.
//
// # Baseline findings
//
// Measured on the two-CPU reference box:
//
//   - On paper-uncapped a query explores about 860 nodes and makes about
//     132k distance checks; index.Within takes about two thirds of the
//     search time and exploration's own work the remaining third.
//   - The 2-shard fleet doubles the work: shard.work_amplification is
//     2.0 (24 nodes and about 96k distance checks per query against 12
//     and 48k on one node). Over ten runs its closed loop completed 66
//     queries/s at the median, against 157-167 for one server over the
//     same dataset and query shape. Each shard also repeats the query
//     compile and the candidate build.
//   - The cache changes serve-mixed reads by about an order of
//     magnitude: at the median of a run a cache hit took 0.32-0.35 ms
//     against 2.6-2.9 ms for a miss, and 21-24% of the reads hit.
//   - NLRNL §V-B maintenance costs more than a rebuild at scale 0.1: at
//     brightkite@0.1 a one-edge batch applies in about 1.4 s (3.7k-4k of
//     5829 vertices affected) and an 8-edge batch in 3.3-6.5 s (4.9k-5.8k
//     affected), against 2.1 s for a full BuildNLRNL. At 0.02 an 8-edge
//     batch (171-299 ms) also costs more than a rebuild (80 ms), while
//     the one- and two-edge batches of serve-mixed are acked in 46-55 ms
//     at the median, touching about half of the 1166 vertices.
//   - The host's speed is not steady: each of the two CPUs flickers
//     between two speeds about 1.5x apart from second to second, and
//     the mix drifts over minutes. Closed loops that keep the CPUs busy
//     repeat best; an open loop that leaves them idle between requests
//     pays for waking them, and that cost varied most.
package main
