package power

import (
	"fmt"

	"repro/internal/floorplan"
)

// CacheParams models one L2 bank: the paper uses 1.28 W per bank from
// CACTI 4.0. A fraction of that is standby (clocking, decoders); the
// rest scales with access activity.
type CacheParams struct {
	MaxW     float64
	IdleFrac float64 // fraction of MaxW drawn at zero activity
}

// DefaultCacheParams returns the CACTI-derived values.
func DefaultCacheParams() CacheParams { return CacheParams{MaxW: 1.28, IdleFrac: 0.3} }

// Power returns the bank's power for an activity factor in [0,1].
func (c CacheParams) Power(activity float64) float64 {
	a := min(max(activity, 0), 1)
	return c.MaxW * (c.IdleFrac + (1-c.IdleFrac)*a)
}

// CrossbarParams models the core-to-cache crossbar. The paper scales the
// crossbar's average power by the number of active cores and the memory
// access statistics.
type CrossbarParams struct {
	MaxW     float64 // at all cores active and peak memory traffic
	IdleFrac float64
}

// DefaultCrossbarParams sizes the CCX per the published T1 unit power
// breakdown (a few percent of chip power at full traffic).
func DefaultCrossbarParams() CrossbarParams { return CrossbarParams{MaxW: 2.0, IdleFrac: 0.15} }

// Power returns the crossbar power given the fraction of cores active
// and a normalized memory traffic factor, both in [0,1].
func (c CrossbarParams) Power(activeFrac, memTraffic float64) float64 {
	a := min(max(activeFrac, 0), 1)
	mt := min(max(memTraffic, 0), 1)
	activity := 0.5*a + 0.5*mt
	return c.MaxW * (c.IdleFrac + (1-c.IdleFrac)*activity)
}

// Model bundles every power component for a chip.
type Model struct {
	DVFS  DVFSTable
	Core  CoreParams
	Cache CacheParams
	Xbar  CrossbarParams
	Leak  LeakageModel

	// OtherW is the switching power of each core-layer "other" block
	// (FPU, I/O pads, buffers); MemOtherW of each memory-layer filler
	// block (tags, test structures).
	OtherW    float64
	MemOtherW float64

	// LeakageEnabled folds the temperature-dependent leakage loop into
	// block power. Disable for experiments isolating dynamic power.
	LeakageEnabled bool
}

// DefaultModel returns the paper's full power model.
func DefaultModel() Model {
	return Model{
		DVFS:           DefaultDVFS(),
		Core:           DefaultCoreParams(),
		Cache:          DefaultCacheParams(),
		Xbar:           DefaultCrossbarParams(),
		Leak:           DefaultLeakage(),
		OtherW:         0.6,
		MemOtherW:      0.3,
		LeakageEnabled: true,
	}
}

// Validate checks all components.
func (m Model) Validate() error {
	if err := m.DVFS.Validate(); err != nil {
		return err
	}
	if err := m.Leak.Validate(); err != nil {
		return err
	}
	if m.Core.ActiveW <= 0 || m.Core.IdleW < 0 || m.Core.SleepW < 0 {
		return fmt.Errorf("power: core params out of range: %+v", m.Core)
	}
	if m.Core.IdleW > m.Core.ActiveW {
		return fmt.Errorf("power: idle power %g exceeds active power %g", m.Core.IdleW, m.Core.ActiveW)
	}
	if m.OtherW < 0 || m.MemOtherW < 0 {
		return fmt.Errorf("power: other-block powers must be >= 0")
	}
	return nil
}

// CoreInput is the per-core operating point for one interval.
type CoreInput struct {
	State CoreState
	Level VfLevel
	Util  float64 // fraction of the interval spent executing
	// MemActivity in [0,1] summarizes the core's cache/memory traffic
	// (derived from the workload's L2 miss statistics).
	MemActivity float64
}

// ChipInput is everything ComputeInto needs for one interval.
type ChipInput struct {
	Cores []CoreInput
	// BlockTempsC are the previous interval's block temperatures used for
	// the leakage feedback loop (one-tick lag); nil means ambient-cold.
	BlockTempsC []float64
	AmbientC    float64
}

// ComputeInto writes the per-block power vector (W) for the stack into
// a caller-owned dst of length stack.NumBlocks(), in stack block order.
// It compiles a Plan for the stack on every call; a caller computing
// many intervals of one stack compiles the Plan once and calls its
// ComputeInto instead.
func (m Model) ComputeInto(dst []float64, stack *floorplan.Stack, in ChipInput) error {
	return m.Plan(stack).ComputeInto(dst, in)
}

// Plan is a Model compiled for one stack: the model's scalars, each V/f
// level's scales, and one entry per block holding everything the
// per-block loop needs that no tick changes. It is immutable once
// Model.Plan returns it, so any number of simulations may share it.
type Plan struct {
	core    CoreParams
	cache   CacheParams
	xbar    CrossbarParams
	leak    leakCurve
	leakage bool
	nCores  int
	levels  []levelScales
	blocks  []planBlock
}

// levelScales are one V/f level's DVFSTable.PowerScale and VoltScale.
type levelScales struct{ power, volt float64 }

// planBlock is one block's share of the power computation that depends
// only on the stack and the model.
type planBlock struct {
	kind floorplan.BlockKind
	core int // CoreID of a core block
	// powerScale is a core block's PowerScale.
	powerScale float64
	// fixedW is the switching power of a block that is not a core, an
	// L2 bank or the crossbar: MemOtherW for an "other" block on a layer
	// with no cores, OtherW for one beside cores, 0 for any other kind.
	fixedW float64
	// leakW is BaseDensityWPerMM2 × area. hasArea is false when the area
	// is ≤ 0, so the block leaks nothing; a NaN area keeps it true, and
	// its leakage stays NaN.
	leakW      float64
	hasArea    bool
	leakFactor float64 // leakDensityFactor of the block's kind
}

// Plan compiles the model for stack. It reads the stack's blocks once;
// a later change to their geometry, kind or scale needs a new Plan.
func (m Model) Plan(stack *floorplan.Stack) *Plan {
	p := &Plan{
		core:    m.Core,
		cache:   m.Cache,
		xbar:    m.Xbar,
		leak:    m.Leak.curve(),
		leakage: m.LeakageEnabled,
		nCores:  stack.NumCores(),
		levels:  make([]levelScales, m.DVFS.Levels()),
		blocks:  make([]planBlock, stack.NumBlocks()),
	}
	for l := range p.levels {
		p.levels[l] = levelScales{power: m.DVFS.PowerScale(VfLevel(l)), volt: m.DVFS.VoltScale(VfLevel(l))}
	}
	for i, b := range stack.Blocks() {
		area := b.Area()
		pb := planBlock{
			kind:       b.Kind,
			core:       b.CoreID,
			powerScale: b.PowerScale,
			leakW:      m.Leak.BaseDensityWPerMM2 * area,
			hasArea:    !(area <= 0),
			leakFactor: leakDensityFactor(b.Kind),
		}
		if b.Kind == floorplan.KindOther {
			pb.fixedW = m.OtherW
			if onMemoryLayer(stack, b) {
				pb.fixedW = m.MemOtherW
			}
		}
		p.blocks[i] = pb
	}
	return p
}

// ComputeInto writes the per-block power vector (W) of the plan's stack
// into a caller-owned dst of length NumBlocks, in stack block order.
// dst is fully overwritten; the hot tick loop reuses one power buffer
// across the whole run. The L2 activity of a bank follows the average
// memory activity of all cores (the T1 interleaves L2 banks across
// cores), and the crossbar follows active-core count and total memory
// traffic, as described in Section IV-B.
func (p *Plan) ComputeInto(dst []float64, in ChipInput) error {
	nb := len(p.blocks)
	if len(in.Cores) != p.nCores {
		return fmt.Errorf("power: got %d core inputs for %d cores", len(in.Cores), p.nCores)
	}
	if in.BlockTempsC != nil && len(in.BlockTempsC) != nb {
		return fmt.Errorf("power: got %d block temperatures for %d blocks", len(in.BlockTempsC), nb)
	}
	if len(dst) != nb {
		return fmt.Errorf("power: destination has %d entries for %d blocks", len(dst), nb)
	}

	// Chip-wide activity summaries.
	activeCores := 0
	memTraffic := 0.0
	for _, c := range in.Cores {
		if c.State == StateActive {
			activeCores++
		}
		memTraffic += c.MemActivity * c.Util
	}
	activeFrac := float64(activeCores) / float64(len(in.Cores))
	memTraffic = min(memTraffic/float64(len(in.Cores))*2, 1) // saturating
	l2W := p.cache.Power(memTraffic)
	xbarW := p.xbar.Power(activeFrac, memTraffic)
	top := len(p.levels) - 1

	for bi := range p.blocks {
		b := &p.blocks[bi]
		var w float64
		var volt float64 = 1
		switch b.kind {
		case floorplan.KindCore:
			ci := in.Cores[b.core]
			ls := p.levels[min(max(int(ci.Level), 0), top)] // DVFSTable.Clamp
			switch ci.State {
			case StateSleep:
				w = p.core.SleepW
			case StateGated:
				w = 0 // clock gated: no switching power at all
			case StateIdle:
				w = p.core.IdleW * ls.power
			default:
				util := min(max(ci.Util, 0), 1)
				w = (util*p.core.ActiveW + (1-util)*p.core.IdleW) * ls.power
			}
			// PowerScale models heterogeneous tiers (smaller/simpler
			// cores draw proportionally less dynamic power); it is
			// exactly 1.0 for homogeneous stacks, which multiplies to
			// bitwise-identical float64s.
			w *= b.powerScale
			volt = ls.volt
			if ci.State == StateSleep {
				volt = 0.3 // power-gated rail retains only a keeper voltage
			}
		case floorplan.KindL2:
			w = l2W
		case floorplan.KindCrossbar:
			w = xbarW
		default:
			w = b.fixedW
		}
		if p.leakage {
			temp := in.AmbientC
			if in.BlockTempsC != nil {
				temp = in.BlockTempsC[bi]
			}
			leak := 0.0
			if b.hasArea {
				leak = b.leakW * p.leak.at(temp) * volt * volt
			}
			w += leak * b.leakFactor
		}
		dst[bi] = w
	}
	return nil
}

// leakDensityFactor scales the logic-calibrated base leakage density
// (0.5 W/mm² at 383 K, [5]) by block type: SRAM arrays leak considerably
// less per area than high-performance logic at 90 nm, and the mixed
// "other" regions sit in between. This is the per-structural-area
// differentiation Section IV-B describes.
func leakDensityFactor(k floorplan.BlockKind) float64 {
	switch k {
	case floorplan.KindCore:
		// Section IV-B computes leakage for the processing cores at the
		// full logic density.
		return 1.0
	case floorplan.KindL2:
		// SRAM arrays leak far less per area than hot logic.
		return 0.15
	case floorplan.KindCrossbar:
		return 0.3
	default: // mixed "other" regions
		return 0.25
	}
}

// onMemoryLayer reports whether the block sits on a layer with no cores.
func onMemoryLayer(stack *floorplan.Stack, b *floorplan.Block) bool {
	for _, blk := range stack.Layers[b.Layer].Blocks {
		if blk.IsCore() {
			return false
		}
	}
	return true
}

// Total sums a block power vector.
func Total(p []float64) float64 {
	s := 0.0
	for _, v := range p {
		s += v
	}
	return s
}
