// Package thermal implements a HotSpot-style compact thermal model for 3D
// stacked chips: an RC network built from a floorplan stack (block mode or
// grid mode), a package model (thermal interface material, copper
// spreader, finned heat sink, convection to ambient), steady-state and
// transient solvers, and noisy temperature sensors. The TSV
// joint-resistivity model of the paper's Figure 2 lives in floorplan,
// beside the stack specs that derive resistivities from it.
//
// # Solvers
//
// Steady-state and transient temperatures come from linear solves
// against the sparse conductance system, which is symmetric positive
// definite. Every solve runs on a sparse LDLᵀ factorization memoized on
// the Model — G once, and C/dt + G once per time step — each built on
// first use, exactly once even under concurrent first access.
// SharedModel hands every caller of one key (the simulator uses its
// ModelKey) the same Model, so sweeps running many simulations over the
// same stacks build and factor each system once and reuse it from
// every worker. A model built outside that cache memoizes its own
// factorizations the same way.
//
// SolverKind is a label that sweeps carry in job keys and records.
// SteadyStateWith and NewTransientWith take it, and only SolverSparse
// changes what they do: it factors privately on every call and keeps
// nothing on the model, for systems solved once. SolverCached and
// SolverDense both select the memoized factorization. Nothing
// densifies the conductance matrix, and there is no second solver:
// the tests hold every solve to its own backward error, manufactured
// solutions and an exact 1-D slab. See FactorCacheStats and
// ResetFactorCache for cache introspection.
//
// # Batched transient stepping
//
// Transients that share one factorization — every integrator built
// by NewTransient from one Model and time step holds the same
// *linalg.Cholesky, and SharedModel gives one Model to every run of a
// system — can advance in lockstep:
// TransientBatch gathers every lane's implicit-Euler right-hand side
// into a column-major panel and performs one blocked triangular solve
// (linalg.Cholesky.SolvePanel) per tick instead of K independent
// sparse sweeps. Per lane the arithmetic is exactly
// Transient.StepInto's, so batched trajectories are bitwise identical
// to sequential ones. StepInto may advance only a prefix: given k ≤ K
// destinations it steps lanes 0…k−1 over the panel's first n·k
// entries and leaves the rest untouched, so runs of different lengths
// share one batch by retiring from its tail. NewTransientBatch returns
// ErrNotBatchable when lanes don't share a factorization; callers fall
// back to stepping each integrator alone. The batch owns its panel and
// scratch (allocated once), the lanes keep owning their integrator
// state, and a batch belongs to one goroutine like the Transients it
// drives.
//
// Internally everything is SI: metres, watts, kelvins (temperatures are
// expressed in °C above an absolute ambient, which is equivalent for a
// linear network). Floorplan geometry arrives in millimetres and is
// converted during network construction.
//
// # Place in the dataflow
//
// The simulation engine gets one Model per system from SharedModel,
// initializes each run's temperatures with a leakage-consistent
// steady-state solve, then advances the run's own Transient once per
// 100 ms tick with the power model's per-block output; sensors add the
// paper's noise model on the way back to the policy layer.
//
// # Buffer ownership and concurrency
//
// The hot-path methods (Transient.StepInto, Model.ExpandPowerInto /
// BlockTempsInto / CoreTempsInto, Sensors.ReadInto) write into
// caller-owned slices and retain nothing; source and destination must
// not alias except where a method documents otherwise
// (Sensors.ReadInto allows dst to alias its input). A Model is
// immutable once built, apart from its memoized factorizations, which
// are once-guarded, so one Model is safely shared by every goroutine of
// a sweep pool, a server or a session host; the SharedModel cache is
// internally synchronized. A Transient belongs to one simulation
// goroutine; it reads the shared factorization and owns its state and
// solve scratch.
package thermal
