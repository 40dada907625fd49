package power

import "fmt"

// CoreState is the operating state of one core.
type CoreState int

const (
	// StateActive means the core is executing (possibly partially
	// utilized within the interval).
	StateActive CoreState = iota
	// StateIdle means the core has no work but remains clocked.
	StateIdle
	// StateSleep is the DPM deep-sleep state (0.02 W in the paper).
	StateSleep
	// StateGated means the clock is gated by the CGate thermal policy:
	// no dynamic power, leakage still applies.
	StateGated
)

// String implements fmt.Stringer.
func (s CoreState) String() string {
	switch s {
	case StateActive:
		return "active"
	case StateIdle:
		return "idle"
	case StateSleep:
		return "sleep"
	case StateGated:
		return "gated"
	default:
		return fmt.Sprintf("CoreState(%d)", int(s))
	}
}

// VfLevel indexes a voltage/frequency setting; 0 is the default (highest)
// setting and larger values are slower.
type VfLevel int

// DVFSTable holds the relative frequency and voltage of each available
// V/f setting. The paper assumes three built-in settings per core:
// default, 95% and 85% of default (Section III-A), with voltage scaling
// proportionally.
type DVFSTable struct {
	Freq []float64 // relative to default, descending
	Volt []float64 // relative to default
}

// DefaultDVFS returns the paper's three-level table.
func DefaultDVFS() DVFSTable {
	return DVFSTable{
		Freq: []float64{1.0, 0.95, 0.85},
		Volt: []float64{1.0, 0.95, 0.85},
	}
}

// Validate checks the table's internal consistency.
func (t DVFSTable) Validate() error {
	if len(t.Freq) == 0 || len(t.Freq) != len(t.Volt) {
		return fmt.Errorf("power: DVFS table needs equal nonzero freq/volt entries, got %d/%d", len(t.Freq), len(t.Volt))
	}
	for i := range t.Freq {
		if t.Freq[i] <= 0 || t.Freq[i] > 1 || t.Volt[i] <= 0 || t.Volt[i] > 1 {
			return fmt.Errorf("power: DVFS entry %d out of (0,1]: f=%g v=%g", i, t.Freq[i], t.Volt[i])
		}
		if i > 0 && t.Freq[i] >= t.Freq[i-1] {
			return fmt.Errorf("power: DVFS frequencies must be strictly descending at entry %d", i)
		}
	}
	return nil
}

// Levels returns the number of V/f settings.
func (t DVFSTable) Levels() int { return len(t.Freq) }

// Clamp restricts l to the valid range.
func (t DVFSTable) Clamp(l VfLevel) VfLevel {
	if l < 0 {
		return 0
	}
	if int(l) >= t.Levels() {
		return VfLevel(t.Levels() - 1)
	}
	return l
}

// FreqScale returns the relative frequency of level l.
func (t DVFSTable) FreqScale(l VfLevel) float64 { return t.Freq[t.Clamp(l)] }

// VoltScale returns the relative voltage of level l.
func (t DVFSTable) VoltScale(l VfLevel) float64 { return t.Volt[t.Clamp(l)] }

// PowerScale returns the dynamic power scaling factor f·V² of level l,
// normalized to 1 at the default setting.
func (t DVFSTable) PowerScale(l VfLevel) float64 {
	l = t.Clamp(l)
	return t.Freq[l] * t.Volt[l] * t.Volt[l]
}

// LowestLevelFor returns the slowest level whose relative frequency still
// covers the requested utilization (the DVFS_Util rule: run as slowly as
// the observed workload allows).
func (t DVFSTable) LowestLevelFor(utilization float64) VfLevel {
	// Builtin min and max agree with math.Min and math.Max bit for bit
	// here, because both bounds are finite.
	u := min(max(utilization, 0), 1)
	best := VfLevel(0)
	for l := 0; l < t.Levels(); l++ {
		if t.Freq[l] >= u {
			best = VfLevel(l)
		} else {
			break
		}
	}
	return best
}

// CoreParams sets the per-core state powers at the default V/f level.
type CoreParams struct {
	ActiveW float64 // paper: 3 W (UltraSPARC T1 core, incl. baseline leakage)
	IdleW   float64 // clocked but stalled
	SleepW  float64 // paper: 0.02 W
}

// DefaultCoreParams returns the paper's values; idle draws the clock
// tree and front-end only.
func DefaultCoreParams() CoreParams {
	return CoreParams{ActiveW: 3.0, IdleW: 0.2, SleepW: 0.02}
}
