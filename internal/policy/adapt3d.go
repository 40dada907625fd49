package policy

import (
	"fmt"
	"sort"

	"repro/internal/floorplan"
	"repro/internal/thermal"
	"repro/internal/workload"
)

// Adapt3DConfig holds the Adapt3D constants. DefaultAdapt3DConfig
// reproduces the paper's experimental settings.
type Adapt3DConfig struct {
	// BetaInc is the probability increase rate (paper: 0.01).
	BetaInc float64
	// BetaDec is the probability decrease rate (paper: 0.1). The rates
	// differ because of the α and 1/α factors in the weight equations.
	BetaDec float64
	// Window is the temperature history length in samples (paper: 10,
	// i.e. 1 s at a 100 ms sampling rate).
	Window int
	// Alpha holds the per-core thermal indices in (0,1); higher means
	// more prone to hot spots. Leave nil to derive them at construction
	// (see NewAdapt3D).
	Alpha []float64
	// Seed drives the allocation sampling (an LFSR in hardware).
	Seed int64
	// OnlineWindow, when positive, enables the paper's runtime option
	// for the thermal indices: every OnlineWindow scheduling intervals
	// the α values are re-derived from the rank ordering of the
	// long-window average core temperatures. The paper notes the window
	// must be long (minutes) because short intervals are misleading; it
	// found offline and runtime indices to behave equivalently.
	OnlineWindow int
}

// DefaultAdapt3DConfig returns the paper's constants.
func DefaultAdapt3DConfig() Adapt3DConfig {
	return Adapt3DConfig{BetaInc: 0.01, BetaDec: 0.1, Window: 10}
}

// Adapt3D is the paper's thermally-aware job allocator (Section
// III-B); see the package documentation for its equations.
type Adapt3D struct {
	cfg   Adapt3DConfig
	alpha []float64
	eng   *ProbEngine

	// Online index estimation state (cfg.OnlineWindow > 0).
	onlineSum []float64
	onlineN   int
}

// NewAdapt3D builds Adapt3D for the given stack. When cfg.Alpha is nil
// the thermal indices are derived offline: from a steady-state solve
// of model under a uniform reference power map (the paper's preferred
// option; it found offline and runtime-derived indices to behave
// equivalently), or, when model is nil, from the stack's geometry
// alone (distance from the heat sink and lateral centrality).
func NewAdapt3D(stack *floorplan.Stack, model *thermal.Model, cfg Adapt3DConfig) (*Adapt3D, error) {
	if stack == nil {
		return nil, fmt.Errorf("policy: Adapt3D needs a stack")
	}
	if cfg.BetaInc <= 0 || cfg.BetaDec <= 0 {
		return nil, fmt.Errorf("policy: beta rates must be positive, got inc=%g dec=%g", cfg.BetaInc, cfg.BetaDec)
	}
	if cfg.Window <= 0 {
		return nil, fmt.Errorf("policy: history window must be positive, got %d", cfg.Window)
	}
	alpha := cfg.Alpha
	if alpha == nil && model != nil {
		var err error
		if alpha, err = SteadyStateIndices(stack, model); err != nil {
			return nil, err
		}
	}
	if alpha == nil {
		alpha = GeometricIndices(stack)
	}
	if len(alpha) != stack.NumCores() {
		return nil, fmt.Errorf("policy: got %d thermal indices for %d cores", len(alpha), stack.NumCores())
	}
	for i, a := range alpha {
		if a <= 0 || a >= 1 {
			return nil, fmt.Errorf("policy: thermal index α[%d]=%g out of (0,1)", i, a)
		}
	}
	p := &Adapt3D{cfg: cfg, alpha: alpha}
	eng, err := NewProbEngine(stack.NumCores(), cfg.Window, cfg.Seed, p.weight)
	if err != nil {
		return nil, err
	}
	p.eng = eng
	return p, nil
}

// weight is Eq. 3.
func (p *Adapt3D) weight(coreID int, wdiff float64) float64 {
	a := p.alpha[coreID]
	if wdiff >= 0 {
		return p.cfg.BetaInc * wdiff / a
	}
	return p.cfg.BetaDec * wdiff * a
}

// Name implements Policy.
func (p *Adapt3D) Name() string { return "Adapt3D" }

// AssignCore implements Policy: draw from the adaptive
// distribution among the least-loaded cores (the paper's "we do not
// overload cores that are already highly utilized and getting warm").
func (p *Adapt3D) AssignCore(v *View, _ workload.Job) int {
	return p.eng.SampleLeastLoaded(v.QueueLens, v.TempsC, v.TprefC)
}

// Tick implements Policy: record the new samples and update the
// probabilities (Eq. 1), refreshing the thermal indices from the long
// temperature history when the runtime option is enabled.
func (p *Adapt3D) Tick(v *View) TickDecision {
	if err := p.eng.Observe(v.TempsC); err != nil {
		return TickDecision{}
	}
	_ = p.eng.Update(v.TprefC, v.ThresholdC, v.TempsC)
	if p.cfg.OnlineWindow > 0 && len(v.TempsC) == len(p.alpha) {
		if p.onlineSum == nil {
			p.onlineSum = make([]float64, len(p.alpha))
		}
		for c, t := range v.TempsC {
			p.onlineSum[c] += t
		}
		p.onlineN++
		if p.onlineN >= p.cfg.OnlineWindow {
			p.alpha = rankIndices(p.onlineSum)
			for c := range p.onlineSum {
				p.onlineSum[c] = 0
			}
			p.onlineN = 0
		}
	}
	return TickDecision{}
}

// rankIndices maps values to (0.1, 0.9) by rank (highest value gets the
// highest index).
func rankIndices(values []float64) []float64 {
	order := make([]int, len(values))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return values[order[a]] < values[order[b]] })
	out := make([]float64, len(values))
	if len(values) == 1 {
		out[0] = 0.5
		return out
	}
	for rank, id := range order {
		out[id] = clampIndex(0.1 + 0.8*float64(rank)/float64(len(values)-1))
	}
	return out
}

// Fork implements Forker: the clone duplicates the thermal
// indices, the online-estimation accumulators, and the probability
// engine (including its random stream position), with the weight
// closure rebound to the clone so online index refreshes stay
// per-instance.
func (p *Adapt3D) Fork() Policy {
	f := &Adapt3D{
		cfg:     p.cfg,
		alpha:   append([]float64(nil), p.alpha...),
		onlineN: p.onlineN,
	}
	if p.onlineSum != nil {
		f.onlineSum = append([]float64(nil), p.onlineSum...)
	}
	f.eng = p.eng.Fork(f.weight)
	return f
}

// Probabilities exposes the allocation distribution.
func (p *Adapt3D) Probabilities() []float64 { return p.eng.Probabilities() }

// Alpha returns the thermal indices in use.
func (p *Adapt3D) Alpha() []float64 { return append([]float64(nil), p.alpha...) }

// GeometricIndices derives thermal indices purely from stack geometry:
// the floorplan susceptibility score mapped into (0.05, 0.95). It is the
// zero-cost fallback when no thermal model is available at design time.
func GeometricIndices(stack *floorplan.Stack) []float64 {
	n := stack.NumCores()
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = clampIndex(stack.HotSusceptibility(i))
	}
	return out
}

// SteadyStateIndices derives thermal indices from the steady-state core
// temperatures under a uniform reference power map (every core at its
// nominal active power): hotter steady-state locations get higher α.
// Cores are ranked by steady-state temperature and mapped evenly into
// (0.1, 0.9); rank mapping keeps the full lateral ordering even when
// the interlayer temperature difference dominates the absolute spread.
func SteadyStateIndices(stack *floorplan.Stack, model *thermal.Model) ([]float64, error) {
	ref := make([]float64, stack.NumBlocks())
	for _, c := range stack.Cores() {
		ref[stack.BlockIndex(c)] = 3.0 // nominal active power, Section IV-B
	}
	temps, err := model.SteadyState(ref)
	if err != nil {
		return nil, fmt.Errorf("policy: Adapt3D offline index solve failed: %w", err)
	}
	return rankIndices(model.CoreTemps(temps)), nil
}

func clampIndex(a float64) float64 {
	if a < 0.05 {
		return 0.05
	}
	if a > 0.95 {
		return 0.95
	}
	return a
}
