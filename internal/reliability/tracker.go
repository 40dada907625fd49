package reliability

import (
	"fmt"
	"math"
)

// streamCap is the turning-point stack capacity of a Stream. Rainflow
// stacks grow only on sequences of strictly widening reversals, which
// real temperature signals produce a handful of at a time; 64 leaves
// two orders of magnitude of headroom while keeping the per-signal
// footprint at one cache line's worth of floats.
const streamCap = 64

// Stream is a streaming rainflow cycle counter with immediate
// Coffin-Manson damage accounting: every closed cycle is folded into a
// running damage sum the moment the 4-point rule extracts it, so a
// simulation can track fatigue over millions of samples without
// storing the temperature history or the cycle census.
//
// Push performs no heap allocations — the turning-point stack is a
// fixed-capacity array — which is what lets the simulator's
// zero-allocation tick loop feed one Stream per block (see
// sim.Config.TrackLifetime and TestTickLoopAllocationContract). In the
// pathological case of more than streamCap unclosed reversals the
// oldest turning point is retired as a half cycle, mirroring the
// standard residue convention, so damage is never silently dropped.
//
// The zero value is not usable; initialize with Init (or NewTracker,
// which initializes one Stream per block).
type Stream struct {
	model CyclingModel

	pts     [streamCap]float64 // unclosed turning points, oldest first
	n       int
	last    float64
	dir     int // -1 falling, +1 rising, 0 unknown
	started bool

	closedDamage float64 // damage of extracted full cycles
	cycles       int     // count of extracted full cycles

	// residue caches closedDamage plus the half-cycle damage of each
	// committed turning-point pair, summed in Damage's order; commit
	// and collapse mark it stale. Fresh from Init it is 0, and correct.
	residue      float64
	residueStale bool
}

// Init resets the stream to empty with the given cycling model.
func (s *Stream) Init(m CyclingModel) {
	*s = Stream{model: m}
}

// Push adds one temperature sample. It is allocation-free.
func (s *Stream) Push(t float64) {
	if !s.started {
		s.pts[0] = t
		s.n = 1
		s.last = t
		s.started = true
		return
	}
	switch {
	case t > s.last:
		if s.dir < 0 {
			s.commit(s.last)
		}
		s.dir = 1
	case t < s.last:
		if s.dir > 0 {
			s.commit(s.last)
		}
		s.dir = -1
	}
	s.last = t
	s.collapse()
}

// commit appends a turning point, retiring the oldest as a half cycle
// if the fixed stack is full.
func (s *Stream) commit(t float64) {
	if s.n == streamCap {
		if d := math.Abs(s.pts[1] - s.pts[0]); d > 0 {
			s.closedDamage += s.model.CycleDamage(d) / 2
		}
		copy(s.pts[:], s.pts[1:])
		s.n--
	}
	s.pts[s.n] = t
	s.n++
	s.residueStale = true
}

// collapse applies the 4-point rule over the committed turning points
// plus the in-progress extremum, folding each extracted full cycle
// straight into the damage sum.
func (s *Stream) collapse() {
	for s.n >= 3 {
		x1, x2, x3 := s.pts[s.n-3], s.pts[s.n-2], s.pts[s.n-1]
		inner := math.Abs(x3 - x2)
		if inner <= math.Abs(x2-x1) && inner <= math.Abs(s.last-x3) {
			s.closedDamage += s.model.CycleDamage(inner)
			s.cycles++
			s.n -= 2
			s.residueStale = true
		} else {
			return
		}
	}
}

// Cycles returns the number of full cycles closed so far.
func (s *Stream) Cycles() int { return s.cycles }

// Damage returns the total accumulated damage: closed cycles plus the
// unclosed residue counted as half cycles, per the usual rainflow
// convention. It re-sums the committed turning points only after a
// Push changed them, so a steady call costs one CycleDamage, for the
// open segment from the last turning point to the latest sample, and
// allocates nothing; policies may call it every tick. Damage writes
// that cache, so one Stream must not take concurrent Damage calls.
func (s *Stream) Damage() float64 {
	if s.residueStale {
		d := s.closedDamage
		for i := 1; i < s.n; i++ {
			if amp := math.Abs(s.pts[i] - s.pts[i-1]); amp > 0 {
				d += s.model.CycleDamage(amp) / 2
			}
		}
		s.residue, s.residueStale = d, false
	}
	d := s.residue
	if s.n > 0 {
		if amp := math.Abs(s.last - s.pts[s.n-1]); amp > 0 {
			d += s.model.CycleDamage(amp) / 2
		}
	}
	return d
}

// BlockWear is the accumulated wear of one tracked block (or core —
// the tracker is agnostic about what its signals are).
type BlockWear struct {
	// Index is the signal's position in the Observe vector (the
	// stack's block order when the simulator owns the tracker).
	Index int `json:"index"`
	// Name labels the block when the tracker was given metadata.
	Name string `json:"name,omitempty"`
	// Layer is the block's die layer (0 = nearest the heat sink), or
	// -1 when unknown.
	Layer int `json:"layer"`
	// CycleDamage is the accumulated Coffin-Manson damage in
	// reference-cycle equivalents (closed cycles plus half-weighted
	// residue).
	CycleDamage float64 `json:"cycle_damage"`
	// Cycles is the number of closed rainflow cycles.
	Cycles int `json:"cycles"`
	// EMFactor is the time-averaged electromigration acceleration
	// relative to the reference temperature (Black's equation).
	EMFactor float64 `json:"em_factor"`
	// MaxTempC is the hottest sample observed.
	MaxTempC float64 `json:"max_temp_c"`
}

// Report is a Tracker snapshot: per-block wear plus the aggregates the
// sweep records and serving metrics surface.
type Report struct {
	// Samples is the number of Observe calls folded in; TickS their
	// spacing in simulated seconds.
	Samples int     `json:"samples"`
	TickS   float64 `json:"tick_s"`

	// Blocks is the per-block wear, index-aligned with the Observe
	// vector.
	Blocks []BlockWear `json:"blocks"`
	// LayerDamage sums cycling damage per die layer (only when the
	// tracker has layer metadata; nil otherwise).
	LayerDamage []float64 `json:"layer_damage,omitempty"`

	// WorstBlock indexes Blocks at the highest cycling damage (ties
	// favour the lower index).
	WorstBlock int `json:"worst_block"`
	// TotalCycleDamage sums cycling damage over all blocks.
	TotalCycleDamage float64 `json:"total_cycle_damage"`
	// WorstEMFactor is the highest per-block time-averaged EM
	// acceleration.
	WorstEMFactor float64 `json:"worst_em_factor"`
	// RelMTTF estimates mean-time-to-failure relative to a reference
	// device held at the EM reference temperature with no thermal
	// cycling: 1.0 matches the reference, above 1 outlives it, below 1
	// wears out faster. The chip is a series system — whichever block
	// wears out first limits it — so this is the minimum over blocks
	// of 1/(EM acceleration + cycling damage per simulated hour),
	// which need not be the worst-cycling block.
	RelMTTF float64 `json:"rel_mttf"`
}

// Worst returns the wear of the most cycling-damaged block.
func (r Report) Worst() BlockWear {
	if len(r.Blocks) == 0 {
		return BlockWear{Index: -1, Layer: -1}
	}
	return r.Blocks[r.WorstBlock]
}

// Tracker accumulates per-block reliability wear over a simulation:
// one streaming rainflow Stream per block for thermal-cycling fatigue
// and a running Black's-equation electromigration factor. It never
// stores cycle censuses, so its memory footprint is constant in the
// run length — the property that lets every sweep run afford lifetime
// metrics.
//
// A Tracker is owned by one simulation goroutine; it is not safe for
// concurrent calls: Observe, Damage and Report all write it.
type Tracker struct {
	// Cycling and EM are the wear models; set them before the first
	// Observe (NewTracker installs the JEDEC-calibrated defaults).
	Cycling CyclingModel
	EM      EMModel

	streams []Stream
	emSum   []float64
	maxC    []float64
	names   []string
	layers  []int
	samples int
	tickS   float64
}

// NewTracker builds a tracker for n signals sampled every tickS
// simulated seconds.
func NewTracker(n int, tickS float64) (*Tracker, error) {
	if n <= 0 {
		return nil, fmt.Errorf("reliability: tracker needs signals, got %d", n)
	}
	if tickS <= 0 {
		return nil, fmt.Errorf("reliability: tick must be positive, got %g", tickS)
	}
	t := &Tracker{
		Cycling: DefaultCycling(),
		EM:      DefaultEM(),
		streams: make([]Stream, n),
		emSum:   make([]float64, n),
		maxC:    make([]float64, n),
		tickS:   tickS,
	}
	for i := range t.streams {
		t.streams[i].Init(t.Cycling)
	}
	for i := range t.maxC {
		t.maxC[i] = math.Inf(-1)
	}
	return t, nil
}

// SetMeta labels the tracked signals with block names and die layers
// (both length n); reports then carry them and aggregate per-layer
// damage. Pass nil for either to leave it unset.
func (t *Tracker) SetMeta(names []string, layers []int) error {
	if names != nil && len(names) != len(t.streams) {
		return fmt.Errorf("reliability: %d names for %d signals", len(names), len(t.streams))
	}
	if layers != nil && len(layers) != len(t.streams) {
		return fmt.Errorf("reliability: %d layers for %d signals", len(layers), len(t.streams))
	}
	t.names = names
	t.layers = layers
	return nil
}

// Observe folds one sampling interval of per-block temperatures in.
// It performs no heap allocations.
func (t *Tracker) Observe(tempsC []float64) error {
	if len(tempsC) != len(t.streams) {
		return fmt.Errorf("reliability: got %d temps for %d signals", len(tempsC), len(t.streams))
	}
	// Honour a Cycling model swapped in after NewTracker: the streams
	// capture their model at Init, so re-seat them while no data has
	// been folded yet (EM is read live below and needs no such step).
	if t.samples == 0 && t.streams[0].model != t.Cycling {
		for i := range t.streams {
			t.streams[i].Init(t.Cycling)
		}
	}
	for i, c := range tempsC {
		t.streams[i].Push(c)
		t.emSum[i] += t.EM.RateFactor(c)
		if c > t.maxC[i] {
			t.maxC[i] = c
		}
	}
	t.samples++
	return nil
}

// Samples returns the number of Observe calls so far.
func (t *Tracker) Samples() int { return t.samples }

// Report snapshots the accumulated wear. The tracker remains usable;
// a report is a pure summary and shares no state with it.
func (t *Tracker) Report() Report {
	rep := Report{
		Samples: t.samples,
		TickS:   t.tickS,
		Blocks:  make([]BlockWear, len(t.streams)),
	}
	if t.layers != nil {
		maxLayer := 0
		for _, l := range t.layers {
			if l > maxLayer {
				maxLayer = l
			}
		}
		rep.LayerDamage = make([]float64, maxLayer+1)
	}
	for i := range t.streams {
		w := BlockWear{
			Index:       i,
			Layer:       -1,
			CycleDamage: t.streams[i].Damage(),
			Cycles:      t.streams[i].Cycles(),
			MaxTempC:    t.maxC[i],
		}
		if t.samples > 0 {
			w.EMFactor = t.emSum[i] / float64(t.samples)
		} else {
			w.MaxTempC = 0
		}
		if t.names != nil {
			w.Name = t.names[i]
		}
		if t.layers != nil {
			w.Layer = t.layers[i]
			rep.LayerDamage[w.Layer] += w.CycleDamage
		}
		rep.Blocks[i] = w
		rep.TotalCycleDamage += w.CycleDamage
		if w.CycleDamage > rep.Blocks[rep.WorstBlock].CycleDamage {
			rep.WorstBlock = i
		}
		if w.EMFactor > rep.WorstEMFactor {
			rep.WorstEMFactor = w.EMFactor
		}
	}
	// Series system: the block with the highest COMBINED stress limits
	// the chip, and it need not be the cycling-worst one (a block under
	// sustained heat can out-wear a block under swings).
	maxStress := 0.0
	for _, w := range rep.Blocks {
		if s := combinedStress(w, float64(t.samples)*t.tickS); s > maxStress {
			maxStress = s
		}
	}
	if maxStress <= 0 {
		rep.RelMTTF = math.Inf(1)
	} else {
		rep.RelMTTF = 1 / maxStress
	}
	return rep
}

// combinedStress is one block's wear rate against the reference
// device (EM factor 1, zero cycling): EM acceleration plus cycling
// damage per simulated hour.
func combinedStress(w BlockWear, simulatedS float64) float64 {
	stress := w.EMFactor
	if hours := simulatedS / 3600; hours > 0 {
		stress += w.CycleDamage / hours
	}
	return stress
}
