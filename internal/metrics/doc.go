// Package metrics implements the paper's evaluation metrics (Section
// V): thermal hot spot residency (% of time above 85 °C), per-layer
// spatial gradients (% of time the hottest-coolest difference on any
// layer exceeds 15 °C), vertical gradients between adjacent layers,
// thermal cycles (sliding-window ΔT averaged over cores, % above
// 20 °C), plus performance normalization helpers. The rainflow cycle
// census that reliability models consume lives in internal/reliability.
//
// # Place in the dataflow
//
// The simulation engine feeds a Collector once per tick with the true
// (noise-free) block and core temperatures — the paper evaluates the
// simulator state, not the sensor stream — and Summarize folds the
// meters into the Summary that sim.Result carries and sweep records
// flatten. Record runs inside the tick loop, so the gradient and cycle
// meters fold contiguous state with inline builtin min and max; the
// meters they replaced are kept in oracle_test.go, and
// FuzzCollectorRecord holds every Summary field to them bit for bit
// (the cycle fields on inputs without a NaN core temperature).
//
// # Buffer ownership and concurrency
//
// Collector.Record reads the passed slices synchronously and retains
// nothing, preserving the tick loop's allocation contract. A Collector
// and its meters belong to one simulation goroutine.
package metrics
