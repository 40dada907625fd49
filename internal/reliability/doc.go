// Package reliability converts the thermal signals produced by the
// simulator into the failure-mechanism terms the paper argues about
// (Section I and [13], JEDEC JEP122C): thermal-cycling fatigue
// (Coffin-Manson over a rainflow cycle census) and temperature-
// accelerated wear-out such as electromigration (Black's equation). It
// extends the paper's percentage metrics into relative-MTTF estimates,
// the quantity lifetime-aware schedulers ultimately target.
//
// # One accumulator and its oracle
//
// Tracker is the wear accumulator: one fixed-footprint Stream per
// block folds every closed rainflow cycle into a running damage sum
// the moment the 4-point rule extracts it, alongside running
// electromigration and peak-temperature accumulators. Observe is
// allocation-free, which is what lets the simulation engine
// (sim.Config.TrackLifetime) feed it from the zero-allocation tick
// loop, every sweep run afford lifetime metrics, and the wear-aware
// DVFS_Rel policy poll per-core damage online. Per-core wear is the
// report's core blocks.
//
// metrics.Rainflow, the batch cycle counter that stores the full
// census, is kept as the test oracle: the tests check that a Stream's
// damage and cycle count equal CyclingModel.Damage over Rainflow's
// census of the same samples.
//
// # Place in the dataflow
//
// sim's engine owns a Tracker per run and snapshots it into
// Result.Lifetime; sweep.NewRecord flattens that report into the
// record's rel_* wire fields; exp.Aggregate folds them into matrix
// cells; internal/server accounts them in /metrics. All outputs are
// pure functions of the temperature sequence, so they inherit the
// simulator's determinism — byte-identical through every transport.
//
// # Concurrency
//
// Tracker and Stream are single-goroutine accumulators owned by one
// simulation; snapshot methods (Report, Damage) share no state with
// the returned values. They are not read-only: Stream.Damage, and so
// Tracker.Report, writes the stream's residue cache.
package reliability
