// Package policy defines the dynamic thermal management policy
// interface and implements every policy the paper evaluates (Section
// III): clock gating, the DVFS variants (temperature-triggered,
// utilization-based, floorplan-aware), thermal migration, the
// Adaptive-Random allocator of [7], the paper's own Adapt3D allocator
// (below), hybrid combinations, the DPM
// fixed-timeout power manager — plus the lifetime-aware DVFS_Rel
// extension, which balances accumulated rainflow cycling damage across
// cores using the streaming accumulators of internal/reliability, and
// the model-predictive MPC_Thermal/MPC_Rel pair, which score candidate
// DVFS/migration actions by rolling the actual simulation forward over
// a short horizon (the Rollout interface, implemented by the engine's
// fork machinery in internal/sim).
//
// # Adapt3D
//
// Adapt3D is the paper's contribution (Section III-B): a dynamic,
// thermally-aware job allocation policy for 3D multicore stacks. It
// extends probabilistic thermal-history scheduling (Adaptive-Random,
// [7]) with a per-core thermal index α that encodes how prone each
// core's 3D location is to hot spots — cores far from the heat sink
// and laterally central heat up faster and cool more slowly.
// Probability updates follow Eq. 1-3:
//
//	P_t = P_{t-1} + W
//	Wdiff = Tpref - Tavg
//	W = βinc · Wdiff · (1/αi)   if Tpref >= Tavg
//	W = βdec · Wdiff · αi        if Tpref <  Tavg
//
// so cool cores in well-cooled locations gain allocation probability
// fastest, and hot-spot-prone cores lose it fastest. Cores above the
// critical threshold get probability zero. The policy is fully runtime
// (no offline application profiling or per-application IPC
// estimation) and has negligible overhead: probabilities change only
// at scheduling intervals and sampling needs one random number.
// NewAdapt3D derives the thermal indices offline from a steady-state
// solve of the block thermal model — the only point where a policy
// touches a solver — after which Tick and AssignCore run on pure
// runtime signals. The roster (internal/exp) runs Adapt3D alone and
// hybridized with each DVFS variant (Section III-C).
//
// # Place in the dataflow
//
// The simulation engine (internal/sim) drives a Policy twice per
// event: AssignCore when a job arrives, and Tick once per 100 ms
// scheduling interval with a View of exactly the signals the paper's
// runtime has (sensor temperatures, utilization, queue state) — no
// offline profiling, no IPC counters. The returned TickDecision is
// actuated by the engine: V/f levels and clock gates take effect this
// interval, migrations move jobs between the scheduler's queues.
//
// # Buffer ownership and concurrency
//
// TickDecision slices are policy-owned scratch, valid only until the
// policy's next Tick call; policies reuse them across ticks so the
// simulator's hot loop stays allocation-free, and the engine copies
// them into its own buffers immediately. The View's slices are
// engine-owned and read-only for the policy. A Policy instance belongs
// to exactly one simulation goroutine — nothing here is safe for
// concurrent use; the sweep layer builds the job's policy per run.
//
// # Forking
//
// Every roster policy implements Forker: Fork returns an
// independent clone owning fresh copies of all mutable state (level
// slices, damage accumulators, RNG position), so checkpoint restores and
// rollout lanes can branch a simulation without the clone and the
// original ever sharing a buffer. Stochastic policies fork by
// replaying their seeded RNG to the captured draw count, preserving
// the exact random stream; a fork therefore continues bit-for-bit as
// the original would have. The same one-goroutine rule applies to each
// clone — forking is how state crosses goroutines, shared buffers
// never do.
package policy
