package policy

import (
	"fmt"
	"math/rand"

	"repro/internal/workload"
)

// ProbEngine is the probabilistic allocation machinery shared by
// Adaptive-Random [7] and Adapt3D: each core holds a probability P_t of
// receiving arriving work; the probabilities are updated every scheduling
// interval from the temperature history (Eq. 1-3 of the paper) and
// renormalized to sum to 1. Cores above the critical threshold get
// probability zero.
//
// The weight function is pluggable: Adaptive-Random uses a single β for
// both directions; Adapt3D scales by the per-core thermal index α.
type ProbEngine struct {
	// WeightFn returns the probability increment W for a core given
	// Wdiff = Tpref - Tavg (Eq. 2-3).
	WeightFn func(core int, wdiff float64) float64
	// Window is the temperature history length (paper: 10 samples).
	Window int

	// raw holds the per-core probability state of Eq. 1 on a [0,1]
	// scale. The β magnitudes of the paper (0.01 up, 0.1 down, with
	// Wdiff in kelvin) only produce sensible dynamics on this scale: a
	// hot-spot-prone core drains to zero within a few intervals while a
	// well-cooled one persists, and recovery speed differs by 1/α. The
	// normalized distribution ("summed up and normalized to 1", Section
	// III-B) is derived from raw for sampling.
	raw  []float64
	hist [][]float64 // ring buffer per core
	pos  int
	fill int
	rng  *replayRNG
}

// replayRNG wraps the seeded uniform stream behind a draw counter so
// the engine's checkpoint machinery can clone it: math/rand exposes no
// way to capture generator state, so a fork reseeds from the original
// seed and replays the consumed prefix — exact for any count, linear
// in draws (sweep-scale runs draw once per job arrival, so replay cost
// stays negligible). The Float64 sequence is bit-identical to the
// rand.Rand it wraps, which the golden aggregate tests pin.
type replayRNG struct {
	seed  int64
	r     *rand.Rand
	draws uint64
}

func newReplayRNG(seed int64) *replayRNG {
	return &replayRNG{seed: seed, r: rand.New(rand.NewSource(seed))}
}

func (g *replayRNG) Float64() float64 {
	g.draws++
	return g.r.Float64()
}

func (g *replayRNG) fork() *replayRNG {
	f := newReplayRNG(g.seed)
	for i := uint64(0); i < g.draws; i++ {
		f.r.Float64()
	}
	f.draws = g.draws
	return f
}

// NewProbEngine builds an engine for numCores cores with uniform initial
// probabilities.
func NewProbEngine(numCores, window int, seed int64, weightFn func(core int, wdiff float64) float64) (*ProbEngine, error) {
	if numCores <= 0 {
		return nil, fmt.Errorf("policy: prob engine needs cores, got %d", numCores)
	}
	if window <= 0 {
		return nil, fmt.Errorf("policy: history window must be positive, got %d", window)
	}
	if weightFn == nil {
		return nil, fmt.Errorf("policy: weight function is required")
	}
	e := &ProbEngine{
		WeightFn: weightFn,
		Window:   window,
		raw:      make([]float64, numCores),
		hist:     make([][]float64, numCores),
		rng:      newReplayRNG(seed),
	}
	for c := range e.hist {
		e.hist[c] = make([]float64, window)
	}
	for c := range e.raw {
		e.raw[c] = 0.5 // neutral initial willingness
	}
	return e, nil
}

// Fork returns an independent copy of the engine: probability state,
// history ring, and the random stream position are all duplicated, so
// parent and fork sample identically from here on without sharing
// state. The weight function cannot be copied blindly — policies close
// it over their own struct — so the caller passes the fork's closure
// (nil keeps the receiver's, safe only for stateless weight
// functions).
func (e *ProbEngine) Fork(weightFn func(core int, wdiff float64) float64) *ProbEngine {
	if weightFn == nil {
		weightFn = e.WeightFn
	}
	f := &ProbEngine{
		WeightFn: weightFn,
		Window:   e.Window,
		raw:      append([]float64(nil), e.raw...),
		hist:     make([][]float64, len(e.hist)),
		pos:      e.pos,
		fill:     e.fill,
		rng:      e.rng.fork(),
	}
	for c := range f.hist {
		f.hist[c] = append([]float64(nil), e.hist[c]...)
	}
	return f
}

// Observe pushes one temperature sample per core into the history.
func (e *ProbEngine) Observe(tempsC []float64) error {
	if len(tempsC) != len(e.hist) {
		return fmt.Errorf("policy: observed %d temps for %d cores", len(tempsC), len(e.hist))
	}
	for c, t := range tempsC {
		e.hist[c][e.pos] = t
	}
	e.pos = (e.pos + 1) % e.Window
	if e.fill < e.Window {
		e.fill++
	}
	return nil
}

// AvgTemp returns the mean of the history window for one core; before
// any observation it returns 0.
func (e *ProbEngine) AvgTemp(core int) float64 {
	if e.fill == 0 {
		return 0
	}
	s := 0.0
	for i := 0; i < e.fill; i++ {
		s += e.hist[core][i]
	}
	return s / float64(e.fill)
}

// Update advances the per-core probability state (Eq. 1) from the
// current history and zeroes any core whose latest reading exceeds
// thresholdC. It must be called after at least one Observe.
func (e *ProbEngine) Update(tprefC, thresholdC float64, latestC []float64) error {
	if len(latestC) != len(e.raw) {
		return fmt.Errorf("policy: update got %d temps for %d cores", len(latestC), len(e.raw))
	}
	if e.fill == 0 {
		return nil // nothing observed yet
	}
	for c := range e.raw {
		wdiff := tprefC - e.AvgTemp(c)
		e.raw[c] += e.WeightFn(c, wdiff)
		if e.raw[c] < 0 {
			e.raw[c] = 0
		}
		if e.raw[c] > 1 {
			e.raw[c] = 1
		}
	}
	// Thermal emergency: never send work to a core above threshold.
	for c, t := range latestC {
		if t > thresholdC {
			e.raw[c] = 0
		}
	}
	return nil
}

// Probabilities returns the normalized sampling distribution ("summed up
// and normalized to 1"). When every core has drained to zero (all above
// threshold), it falls back to uniform.
func (e *ProbEngine) Probabilities() []float64 {
	out := make([]float64, len(e.raw))
	e.ProbabilitiesInto(out)
	return out
}

// ProbabilitiesInto is Probabilities writing into a caller-owned dst of
// length NumCores, for instrumentation that samples the distribution
// every tick without allocating. It panics on a wrong-length dst.
func (e *ProbEngine) ProbabilitiesInto(dst []float64) {
	if len(dst) != len(e.raw) {
		panic(fmt.Sprintf("policy: ProbabilitiesInto got %d entries for %d cores", len(dst), len(e.raw)))
	}
	sum := 0.0
	for _, v := range e.raw {
		sum += v
	}
	if sum <= 0 {
		for c := range e.raw {
			dst[c] = 1 / float64(len(e.raw))
		}
		return
	}
	for c, v := range e.raw {
		dst[c] = v / sum
	}
}

// Sample draws a core from the current distribution. The random source
// is the policy's own seeded stream, so runs are reproducible (the paper
// notes an on-chip LFSR suffices in hardware).
func (e *ProbEngine) Sample() int {
	total := 0.0
	for _, p := range e.raw {
		total += p
	}
	if total <= 0 {
		return int(e.rng.Float64() * float64(len(e.raw)))
	}
	r := e.rng.Float64() * total
	cum := 0.0
	for c, p := range e.raw {
		cum += p
		if r < cum {
			return c
		}
	}
	return len(e.raw) - 1
}

// SampleLeastLoaded draws from the distribution restricted to the cores
// with the shortest dispatch queues. This is the "we do not overload
// cores that are already highly utilized" property of Section III-B: the
// thermal probabilities bias placement among the balanced choices, so
// the policies keep the negligible performance overhead the paper
// reports.
//
// Eligibility is temperature-gated: normally only the emptiest cores
// qualify (with a processor-sharing core, co-scheduling slows every
// resident thread), but when every emptiest core is already above Tpref
// and a cooler core exists one queue position deeper, the cooler core
// becomes eligible — a bounded performance sacrifice made exactly during
// thermal stress, which is when the alternative (DVFS/stalling) costs
// far more. When every eligible core has zero probability, it falls back
// to a uniform draw among the eligible cores.
func (e *ProbEngine) SampleLeastLoaded(queueLens []int, tempsC []float64, tprefC float64) int {
	if len(queueLens) != len(e.raw) {
		return e.Sample()
	}
	minQ := queueLens[0]
	for _, q := range queueLens[1:] {
		if q < minQ {
			minQ = q
		}
	}
	maxQ := minQ
	if len(tempsC) == len(queueLens) {
		allMinWarm := true
		coolDeeper := false
		for c, q := range queueLens {
			if q == minQ && tempsC[c] <= tprefC {
				allMinWarm = false
			}
			if q == minQ+1 && tempsC[c] <= tprefC {
				coolDeeper = true
			}
		}
		if allMinWarm && coolDeeper {
			maxQ = minQ + 1
		}
	}
	total := 0.0
	for c, q := range queueLens {
		if q <= maxQ {
			total += e.raw[c]
		}
	}
	if total <= 0 {
		// Uniform among eligible cores.
		n := 0
		for _, q := range queueLens {
			if q <= maxQ {
				n++
			}
		}
		k := int(e.rng.Float64() * float64(n))
		for c, q := range queueLens {
			if q <= maxQ {
				if k == 0 {
					return c
				}
				k--
			}
		}
		return len(e.raw) - 1
	}
	r := e.rng.Float64() * total
	cum := 0.0
	last := len(e.raw) - 1
	for c, q := range queueLens {
		if q > maxQ {
			continue
		}
		cum += e.raw[c]
		last = c
		if r < cum {
			return c
		}
	}
	return last
}

// AdaptRand is the Adaptive-Random policy of [7] (Coskun et al., DATE
// 2007): workload allocation probabilities adapt to the temperature
// history, favouring cores under lower thermal stress. Unlike Adapt3D it
// does not distinguish cores on different layers.
type AdaptRand struct {
	eng *ProbEngine
}

// adaptRandBeta is Adaptive-Random's probability adjustment rate (same
// in both directions).
const adaptRandBeta = 0.03

// adaptRandWeight is Adaptive-Random's weight function: one rate for
// every core. It captures nothing, so forks share it.
func adaptRandWeight(_ int, wdiff float64) float64 { return adaptRandBeta * wdiff }

// NewAdaptRand builds the policy for numCores cores.
func NewAdaptRand(numCores int, seed int64) (*AdaptRand, error) {
	eng, err := NewProbEngine(numCores, 10, seed, adaptRandWeight)
	if err != nil {
		return nil, err
	}
	return &AdaptRand{eng: eng}, nil
}

// Name implements Policy.
func (a *AdaptRand) Name() string { return "AdaptRand" }

// AssignCore implements Policy: sample the adaptive distribution among
// the least-loaded cores.
func (a *AdaptRand) AssignCore(v *View, _ workload.Job) int {
	return a.eng.SampleLeastLoaded(v.QueueLens, v.TempsC, v.TprefC)
}

// Tick implements Policy: refresh history and probabilities.
func (a *AdaptRand) Tick(v *View) TickDecision {
	if err := validateView(v); err != nil {
		return TickDecision{}
	}
	if err := a.eng.Observe(v.TempsC); err != nil {
		return TickDecision{}
	}
	_ = a.eng.Update(v.TprefC, v.ThresholdC, v.TempsC)
	return TickDecision{}
}

// Probabilities exposes the current allocation distribution (for tests
// and instrumentation).
func (a *AdaptRand) Probabilities() []float64 { return a.eng.Probabilities() }

// Fork implements Forker: the fork gets its own probability engine —
// history, probabilities, and random stream position all duplicated —
// sharing the stateless weight function.
func (a *AdaptRand) Fork() Policy { return &AdaptRand{eng: a.eng.Fork(nil)} }
