// Package sim is the dynamic management infrastructure of Section IV-D
// — the engine that every simulation in the repository ultimately runs
// through. It couples the synthetic workload (internal/workload), the
// multi-queue job scheduler (internal/sched), the management policy
// under test (internal/policy), the power model with its
// leakage feedback loop (internal/power), and the 3D thermal model
// (internal/thermal), advancing everything on a common 100 ms
// sampling/scheduling tick, and collects the paper's metrics
// (internal/metrics) plus the streaming lifetime wear report
// (internal/reliability, Config.TrackLifetime) when requested; that
// report's core blocks are the per-core wear.
//
// # Place in the dataflow
//
// sim sits at the centre of the five-layer stack:
//
//	sweep.Spec ─▶ sweep.Job ─▶ exp runner ─▶ sim.RunBatchContext ─▶ sim.Result
//	                                            │
//	             workload / sched / policy / power / thermal / metrics / reliability
//
// Callers describe one run with Config and receive a Result; the sweep
// orchestrator (internal/sweep) flattens Results into wire records, and
// the serving layer (internal/server) streams those over HTTP.
//
// # Stack identity and the shared model
//
// Config.StackSpec is the one stack input: ModelKey and Prewarm key the
// thermal system on its content hash ("stack:<hash>", plus "|grid…" in
// grid mode). A builtin experiment names its stack through
// floorplan.SpecWithResistivity, as sweep.Scenario.StackSpec resolves
// it, so a run of an experiment and a sweep job on it share a key.
// Config holds only what a run varies; the paper's 100 ms tick, 85 °C
// threshold and 80 °C preferred temperature are constants of the
// package, and exp.JobConfig is the one mapping from a sweep job to a
// Config. The key is also the identity of the run's thermal model: the
// engine gets it from thermal.SharedModel, which builds the stack and
// the model once per key, so every run, batch lane, fork and Prewarm of
// one key reads the same immutable model, its stack and its memoized
// factorizations. Each engine settles its own idle fixed
// point. Only a session's DegradeInterfaces builds a private model.
//
// # The tick loop and its allocation contract
//
// Every run goes through one lockstep driver: Run and RunContext are
// RunBatchContext of one config. RunBatchContext builds an internal
// engine per config that preallocates every per-tick buffer, then
// executes the tick pipeline for each: dispatch arrivals via the
// policy, apply the policy's TickDecision, advance the scheduler,
// compute power with temperature-dependent leakage, step the thermal
// network (one panel solve for every run that shares a factorization),
// read sensors, and record metrics. The driver orders its engines
// longest run first, so runs of different durations share one batch
// and each retires at its last tick; the first error or cancellation
// aborts the batch. The engine writes no trace: a caller that wants
// one steps the engine and reads Engine.TickStateInto after each step,
// as dtmsim -trace does. In steady state the loop performs zero heap allocations —
// TestTickLoopAllocationContract holds every policy family to 0
// allocs/tick, including runs with the lifetime tracker attached and
// MPC planners deciding on every tick, and
// TestBatchedTickLoopAllocationContract holds the lockstep tick to 0
// per lane.
//
// # Hooks and buffer ownership
//
// Per-tick observation goes through the Observer interface
// (Config.Observer); adapt bare functions with FuncObserver. Observer
// methods run on the simulation goroutine and must be cheap,
// non-blocking, and allocation-free. The slices passed to ObserveTemps
// are engine-owned scratch, valid only for the duration of the call —
// fold them into caller state, never retain them. Policy TickDecision
// slices are policy-owned and copied by the engine immediately (see
// policy.TickDecision for the full ownership rules).
//
// # Stepping, checkpoints, and forks
//
// Run drives a whole simulation; callers that need the loop
// themselves build an Engine (NewEngine) and Step it, then Finish.
// Engine.Fork branches an independent engine that shares the immutable
// inputs (thermal model with its stack and factorizations, job trace)
// and copies every piece of mutable tick state — raw integrator state,
// scheduler queues, sensor stream position, meter and wear
// accumulators, a clone of the policy. An unstepped fork is a
// checkpoint: Restore(src) copies src's state into an engine of the
// same shape, and the resumed run is bitwise identical to never having
// stopped (TestSnapshotRestoreResumesBitwise pins this across every
// stack, the grid discretization, and runs with and without lifetime
// tracking). Restore only reads src, so concurrent restores may share
// one checkpoint. Engine state is copied one way: copyTick takes the
// tick state (position, result counters, per-tick vectors, integrator,
// scheduler, energy), copyState adds sensors, meters and wear, and
// each component copies itself with one CopyFrom. A new engine and a
// fork build their mutable half through one constructor, so the two
// cannot drift apart in what state they own.
//
// Ownership rules for forked engines: the fork owns its buffers
// outright — nothing mutable is shared with the parent, so parent and
// fork may advance on different goroutines concurrently (the shared
// factorization is read-only under the buffered solves). The fork
// drops the parent's observer and context. The
// model-predictive policies run on a lean form of this machinery: the
// engine hands a policy.Planner a rollout evaluator that copies the
// host's tick state (copyTick: no sensors, metrics or wear) into a
// reused lane engine per distinct candidate action. The lanes advance
// in lockstep through one driver over all of them — an epoch with k
// distinct candidates steps its first k lanes — one panel solve per
// tick.
//
// A single engine is strictly single-goroutine, and so are its
// rollouts: they run on the goroutine that ticks the host. Concurrency
// lives in the sweep worker pool (one engine, or one lockstep group,
// per worker).
package sim
