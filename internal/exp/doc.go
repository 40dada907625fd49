// Package exp assembles the paper's experiments: the full policy
// roster of Section III (PolicyOrder — the paper's eleven plus the
// lifetime-aware DVFS_Rel and the MPC pair, each built by name through
// BuildPolicy), the benchmark suite of Table I, and the
// run matrices behind Figures 3-6 plus the lifetime report extension.
// It is the layer cmd/dtmsweep, cmd/dtmserved (via internal/server),
// and the benchmark harness sit on.
//
// # Place in the dataflow
//
// exp glues the declarative sweep layer to the simulator:
//
//   - MatrixConfig.Spec translates a figure matrix into a sweep.Spec;
//   - NewRunners returns the simulator-backed sweep.RunFunc and
//     sweep.RunGroupFunc: each builds the job's policy (and only that
//     one; only the Adapt3D-based policies build a thermal model, for
//     their offline indices), replays the cached workload trace, and
//     runs sim.RunBatchContext (attaching the lifetime tracker when the
//     job asks) — the group runner over a chunk of same-system jobs
//     that GroupKey gathers, the job runner over its one job;
//   - Aggregate folds streamed records — from any mix of inline runs,
//     shards, checkpoints, and remote servers — into deterministic
//     mean±stddev matrix cells, normalized against the baseline
//     policy run on the identical trace;
//   - the Fig*Report / ReliabilityReport functions render matrices as
//     report tables.
//
// # Fairness and determinism
//
// All runs launched from one runner share a workload.TraceCache, so
// every policy replays the exact same pre-generated job trace per
// (scenario, benchmark, replicate) — the fairness invariant the
// figure comparisons rely on. Aggregation accumulates benchmarks in
// configuration order and replicates in seed order, so the matrix is
// bit-reproducible regardless of worker-pool scheduling; the golden
// tests pin it.
//
// # Concurrency
//
// The runners from NewRunners are called concurrently by the sweep
// worker pool; everything they touch (trace cache, thermal
// factorization cache) is internally synchronized. RunnerHooks must likewise be
// safe for concurrent calls and cheap — the serving layer feeds
// per-tick atomic counters from them.
package exp
