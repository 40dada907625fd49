// Package power implements the paper's power model (Section IV-B):
// per-core active/idle/sleep states, three-level DVFS with P ∝ f·V²
// scaling, temperature- and voltage-dependent leakage (second-order
// polynomial in the style of Su et al. [25], calibrated to 0.5 W/mm²
// at 383 K), CACTI-derived L2 cache power, activity-scaled crossbar
// power, and chip-total energy accounting (EnergyMeter).
//
// # Place in the dataflow
//
// The engine (internal/sim) compiles the paper's Model for its stack
// once per run (Model.Plan); its forks, checkpoints and rollout lanes
// share that Plan. Each simulation tick, the engine assembles a
// ChipInput from the scheduler's utilization/state vector and the
// previous interval's block temperatures (the leakage feedback loop),
// and Plan.ComputeInto fills the per-block power vector that drives
// the thermal model's next transient step. The DVFSTable doubles as
// the policy layer's actuator vocabulary: policies pick VfLevels, the
// engine converts them to frequency scales for the scheduler and
// voltage/frequency factors for this model.
//
// # Buffer ownership and concurrency
//
// ComputeInto writes into a caller-owned block-power slice and retains
// neither it nor the input temperature slice — the tick loop's
// allocation contract depends on that. Model values are plain data; a
// Plan is never written after Model.Plan returns, so concurrent
// simulations may share one, and nothing here locks.
package power
