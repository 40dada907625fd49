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
//	sweep.Spec ─▶ sweep.Job ─▶ exp runner ─▶ sim.RunBatch ─▶ sim.Result
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
// thermal system on its content hash ("stack:<hash>|tick…|solver…",
// plus "|grid…" in grid mode). Config.Exp and Config.JointResistivityMKW
// are shorthand that withDefaults resolves once, through
// floorplan.SpecWithResistivity, when StackSpec is nil — so a run
// configured by experiment and one configured by the equivalent spec
// share a key. On the cached solver path the key is also the identity
// of the run's thermal model: the engine gets it from
// thermal.SharedModel, which builds the stack and the model once per
// key, so every run, batch lane, fork and Prewarm of one key reads the
// same immutable model, its stack and its memoized factorizations.
// Each engine settles its own idle fixed point. The other solver
// paths, and a session's DegradeInterfaces, build private models.
//
// # The tick loop and its allocation contract
//
// Every run goes through one lockstep driver: Run and RunContext are
// RunBatchContext of one config. RunBatch builds an internal engine per
// config that preallocates every per-tick buffer, then executes the
// tick pipeline for each: dispatch arrivals via the policy, apply the
// policy's TickDecision, advance the scheduler, compute power with
// temperature-dependent leakage, step the thermal network (one panel
// solve for every run that shares a factorization), read sensors, and
// record metrics. The driver orders its engines longest run first, so
// runs of different durations share one batch and each retires at its
// last tick; the first error or cancellation aborts the batch, and
// every trace is flushed on every exit. In steady state the loop
// performs zero heap allocations — TestTickLoopAllocationContract
// enforces ≤ 2 allocs/tick (measured 0) for every policy family,
// including runs with the lifetime tracker attached, and
// TestBatchedTickLoopAllocationContract holds the lockstep tick to the
// same budget per lane.
//
// # Hooks and buffer ownership
//
// Per-tick observation goes through the Observer interface
// (Config.Observer); compose several with Observers, adapt bare
// functions with FuncObserver. Observer methods run on the simulation
// goroutine and must be cheap, non-blocking, and allocation-free. The slices passed to ObserveTemps are engine-owned
// scratch, valid only for the duration of the call — fold them into
// caller state, never retain them. Policy TickDecision slices are
// policy-owned and copied by the engine immediately (see
// policy.TickDecision for the full ownership rules).
//
// # Stepping, snapshots, and forks
//
// Run drives a whole simulation; callers that need the loop
// themselves build an Engine (NewEngine) and Step it, then Finish.
// Engine.Snapshot captures every piece of mutable tick state — raw
// integrator state, scheduler queues, sensor stream position, meter
// and wear accumulators, a clone of the policy — into a reusable
// Snapshot value; Restore rewinds, and the resumed run is bitwise
// identical to never having stopped (TestSnapshotRestoreResumesBitwise
// pins this across every stack, the grid discretization, and runs with
// and without lifetime tracking). Engine.Fork branches an independent
// engine that shares the immutable inputs (thermal model with its stack
// and factorizations, job trace) and copies all mutable state. A new
// engine and a fork build their mutable half through one constructor,
// so the two cannot drift apart in what state they own.
//
// Ownership rules for forked engines: the fork owns its buffers
// outright — nothing mutable is shared with the parent, so parent and
// fork may advance on different goroutines concurrently (the shared
// factorization is read-only under the buffered solves). The fork
// drops the parent's trace writer, observer, and context. The
// model-predictive policies run on a lean form of this machinery: the
// engine hands a policy.Planner a rollout evaluator that captures the
// host's tick state mid-decision (position, per-tick vectors,
// integrator, scheduler, energy meter — no sensors, metrics or wear)
// and replays each distinct candidate action on a reused lane engine.
// The lanes advance in lockstep through one driver over all of them —
// an epoch with k distinct candidates steps its first k lanes — one
// panel solve per tick (each lane steps alone on the dense solver).
//
// A single engine is strictly single-goroutine, and so are its
// rollouts: they run on the goroutine that ticks the host. Concurrency
// lives in the sweep worker pool (one engine, or one lockstep group,
// per worker).
package sim
