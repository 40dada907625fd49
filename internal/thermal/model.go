package thermal

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/floorplan"
	"repro/internal/geometry"
	"repro/internal/linalg"
)

// mmToM converts millimetres to metres.
const mmToM = 1e-3

// mm2ToM2 converts mm² to m².
const mm2ToM2 = 1e-6

// Package node offsets relative to the first package node. The package
// model has 10 nodes: spreader centre, four spreader periphery sides,
// sink centre, four sink periphery sides.
const (
	offSpreaderCenter = 0
	offSpreaderSide   = 1 // 4 nodes: W, E, S, N
	offSinkCenter     = 5
	offSinkSide       = 6 // 4 nodes: W, E, S, N
	numPackageNodes   = 10
)

// Model is a compact RC thermal network for a 3D stack plus its package.
// The first NumBlocks (block mode) or layer-cell (grid mode) nodes carry
// power; the last 10 nodes model the spreader, sink, and convection.
//
// The network state is expressed as temperature rise above ambient; all
// public methods speak °C. A Model is read-only once built, so one Model
// may serve any number of goroutines (see SharedModel); callers must not
// modify its exported fields.
type Model struct {
	Params Params
	Stack  *floorplan.Stack

	NumNodes int
	// G is the conductance matrix including grounding to ambient.
	G *linalg.Sparse
	// C is the per-node heat capacitance in J/K.
	C []float64
	// GroundG is the per-node conductance to ambient in W/K (nonzero only
	// on sink nodes); used for energy accounting.
	GroundG []float64

	// Flattened per-block power expansion and temperature readback,
	// built once by finalizeHotPath in deterministic (sorted) order so
	// per-tick ExpandPowerInto/BlockTempsInto walk contiguous slices —
	// and so grid-mode readback sums are bit-reproducible across runs.
	powerEntries []powerEntry
	readback     [][]readEntry // indexed by block
	// coreBlock maps CoreID -> stack block index for CoreTempsInto.
	coreBlock []int

	numBlocks int

	// steady and transient memoize the SolverCached factorizations of
	// G and, per time step, of C/dt + G (float64 dt -> *lazyFactor).
	// They are the only state a Model gains after construction, and
	// both are safe for concurrent use.
	steady    lazyFactor
	transient sync.Map
}

// powerEntry is one term of the node-power expansion:
// p[node] += frac * blockPower[block].
type powerEntry struct {
	node, block int
	frac        float64
}

// readEntry is one term of a block's temperature readback:
// T_block += w * nodeTemps[node].
type readEntry struct {
	node int
	w    float64
}

// NumBlocks returns the number of floorplan blocks the model carries
// power and readback for.
func (m *Model) NumBlocks() int { return m.numBlocks }

// finalizeHotPath flattens the construction-time maps into sorted slices
// for the per-tick hot path. powerFrac maps node -> block -> fraction
// (node j receives sum_b powerFrac[j][b] * P[b]); blockReadback maps
// block -> node -> weight (T_block[b] = sum_j weight * T[j], the
// area-weighted average over the block's cells). Both constructors call
// it exactly once, after the maps are complete; the Model keeps only the
// flattened forms.
func (m *Model) finalizeHotPath(powerFrac, blockReadback map[int]map[int]float64) {
	nodes := make([]int, 0, len(powerFrac))
	for nd := range powerFrac {
		nodes = append(nodes, nd)
	}
	sort.Ints(nodes)
	for _, nd := range nodes {
		fracs := powerFrac[nd]
		blocks := make([]int, 0, len(fracs))
		for b := range fracs {
			blocks = append(blocks, b)
		}
		sort.Ints(blocks)
		for _, b := range blocks {
			m.powerEntries = append(m.powerEntries, powerEntry{node: nd, block: b, frac: fracs[b]})
		}
	}
	m.readback = make([][]readEntry, m.numBlocks)
	for b := 0; b < m.numBlocks; b++ {
		weights := blockReadback[b]
		nds := make([]int, 0, len(weights))
		for nd := range weights {
			nds = append(nds, nd)
		}
		sort.Ints(nds)
		entries := make([]readEntry, 0, len(nds))
		for _, nd := range nds {
			entries = append(entries, readEntry{node: nd, w: weights[nd]})
		}
		m.readback[b] = entries
	}
	cores := m.Stack.Cores()
	m.coreBlock = make([]int, len(cores))
	for id, c := range cores {
		m.coreBlock[id] = m.Stack.BlockIndex(c)
	}
}

// NewBlockModel builds a block-mode network: one node per floorplan
// block, HotSpot block-model style.
func NewBlockModel(stack *floorplan.Stack, p Params) (*Model, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := stack.Validate(); err != nil {
		return nil, err
	}
	blocks := stack.Blocks()
	nb := len(blocks)
	// One "spreader entry" node per bottom-layer block sits between the
	// TIM and the spreader plate, so that heat crosses the TIM exactly
	// once before splitting into the downward and lateral spreading
	// paths.
	nEntry := len(stack.Layers[0].Blocks)
	n := nb + nEntry + numPackageNodes
	m := &Model{
		Params:    p,
		Stack:     stack,
		NumNodes:  n,
		C:         make([]float64, n),
		GroundG:   make([]float64, n),
		numBlocks: nb,
	}
	sb := linalg.NewSparseBuilder(n)

	// Identity power map and readback.
	powerFrac := make(map[int]map[int]float64, nb)
	blockReadback := make(map[int]map[int]float64, nb)
	for i := range blocks {
		powerFrac[i] = map[int]float64{i: 1}
		blockReadback[i] = map[int]float64{i: 1}
	}

	// Node capacitances and within-layer lateral resistances.
	for _, layer := range stack.Layers {
		t := layer.ThicknessMM * mmToM
		for i, bi := range layer.Blocks {
			ni := stack.BlockIndex(bi)
			m.C[ni] += p.SiliconVolHeat * bi.Area() * mm2ToM2 * t
			for j := i + 1; j < len(layer.Blocks); j++ {
				bj := layer.Blocks[j]
				g := lateralConductance(p, bi, bj, t)
				if g > 0 {
					sb.StampConductance(ni, stack.BlockIndex(bj), g)
				}
			}
		}
	}

	// Vertical resistances between consecutive layers through the
	// interface material (with TSV-adjusted joint resistivity, resolved
	// per interface so spec-built stacks can vary bonding properties).
	for li := 0; li+1 < len(stack.Layers); li++ {
		ifc := stack.Interface(li)
		rhoInt := ifc.ResistivityMKW
		tInt := ifc.ThicknessMM * mmToM
		lower, upper := stack.Layers[li], stack.Layers[li+1]
		tl := lower.ThicknessMM * mmToM
		tu := upper.ThicknessMM * mmToM
		for _, bl := range lower.Blocks {
			for _, bu := range upper.Blocks {
				aOv := bl.Rect.OverlapArea(bu.Rect) * mm2ToM2
				if aOv <= 0 {
					continue
				}
				r := p.SiliconResistivity*(tl/2)/aOv +
					rhoInt*tInt/aOv +
					p.SiliconResistivity*(tu/2)/aOv
				sb.StampConductance(stack.BlockIndex(bl), stack.BlockIndex(bu), 1/r)
				// Share the (thin) interface material capacitance.
				cInt := p.InterlayerVolHeat * aOv * tInt / 2
				m.C[stack.BlockIndex(bl)] += cInt
				m.C[stack.BlockIndex(bu)] += cInt
			}
		}
		// Interlayer microfluidic cooling: both faces of the cooled
		// interface convect to coolant held at ambient. Linearized as a
		// ground conductance, so the system stays SPD and factors like
		// any other.
		if htc := ifc.CoolantHTCWm2K; htc > 0 {
			for _, lay := range []*floorplan.Layer{lower, upper} {
				for _, b := range lay.Blocks {
					node := stack.BlockIndex(b)
					g := htc * b.Area() * mm2ToM2
					sb.StampGroundConductance(node, g)
					m.GroundG[node] += g
				}
			}
		}
	}

	// Bottom layer into the package: each block crosses half the die and
	// the TIM into its spreader entry node; from there heat splits into
	// the downward path (under-die spreader slab) and four lateral arms
	// toward the spreader periphery (blocks near the die edge shed heat
	// outward more easily — this is what makes central cores run hotter,
	// the 2D effect DVFS_FLP relies on).
	bottom := stack.Layers[0]
	tBot := bottom.ThicknessMM * mmToM
	firstPkg := nb + nEntry
	spreaderCenter := firstPkg + offSpreaderCenter
	bounds := bottom.Bounds()
	for k, b := range bottom.Blocks {
		a := b.Area() * mm2ToM2
		entry := nb + k
		rIn := p.SiliconResistivity*(tBot/2)/a + p.TIMResistivity*p.TIMThicknessM/a
		sb.StampConductance(stack.BlockIndex(b), entry, 1/rIn)
		rDown := p.CopperResistivity * (p.SpreaderThickM / 2) / a
		sb.StampConductance(entry, spreaderCenter, 1/rDown)
		stampSpreaderLateral(sb, p, entry, b.Rect, bounds, firstPkg)
		// The entry node owns the top half of its spreader column.
		m.C[entry] += p.CopperVolHeat * a * p.SpreaderThickM / 2
	}

	m.buildPackage(sb, firstPkg, bottom.Bounds().W*mmToM, bottom.Bounds().H*mmToM)

	m.G = sb.Build()
	m.finalizeHotPath(powerFrac, blockReadback)
	return m, nil
}

// lateralConductance returns the conductance in W/K between two abutting
// blocks on the same silicon layer of thickness t, or 0 when they do not
// share a boundary.
func lateralConductance(p Params, bi, bj *floorplan.Block, t float64) float64 {
	shared := bi.Rect.SharedBoundary(bj.Rect)
	if shared <= 0 {
		return 0
	}
	sharedM := shared * mmToM
	// Determine the boundary orientation to pick the perpendicular
	// half-extents of each block (the conduction path lengths).
	var di, dj float64
	const eps = 1e-9
	vertical := math.Abs(bi.Rect.Right()-bj.Rect.X) <= eps || math.Abs(bj.Rect.Right()-bi.Rect.X) <= eps
	if vertical {
		di, dj = bi.Rect.W/2*mmToM, bj.Rect.W/2*mmToM
	} else {
		di, dj = bi.Rect.H/2*mmToM, bj.Rect.H/2*mmToM
	}
	r := p.SiliconResistivity * (di + dj) / (t * sharedM)
	return 1 / r
}

// stampSpreaderLateral connects a bottom-layer region (block or grid
// cell) to the four spreader periphery nodes through the spreader plate.
// The resistance of each star arm grows with the region's distance from
// the corresponding die edge, approximating lateral constriction in the
// plate: heat entering the spreader under the die edge escapes outward
// more easily than heat entering under the die centre.
func stampSpreaderLateral(sb *linalg.SparseBuilder, p Params, node int, r geometry.Rect, die geometry.Rect, firstPkg int) {
	cx, cy := r.Center()
	margin := (p.SpreaderSideM - die.W*mmToM) / 4
	marginV := (p.SpreaderSideM - die.H*mmToM) / 4
	arms := [4]struct {
		dist, width float64
	}{
		{(cx-die.X)*mmToM + margin, r.H * mmToM},       // W
		{(die.Right()-cx)*mmToM + margin, r.H * mmToM}, // E
		{(cy-die.Y)*mmToM + marginV, r.W * mmToM},      // S
		{(die.Top()-cy)*mmToM + marginV, r.W * mmToM},  // N
	}
	for side, arm := range arms {
		res := p.CopperResistivity * arm.dist / (p.SpreaderThickM * arm.width)
		sb.StampConductance(node, firstPkg+offSpreaderSide+side, 1/res)
	}
}

// buildPackage stamps the spreader, sink, and convection nodes. firstPkg
// is the node index of the spreader centre; dieW/dieH are the die
// footprint in metres.
func (m *Model) buildPackage(sb *linalg.SparseBuilder, firstPkg int, dieW, dieH float64) {
	p := m.Params
	spreaderCenter := firstPkg + offSpreaderCenter
	sinkCenter := firstPkg + offSinkCenter

	dieA := dieW * dieH
	spA := p.SpreaderSideM * p.SpreaderSideM
	sinkA := p.SinkSideM * p.SinkSideM

	// Spreader centre capacitance: the bottom half of the under-die slab
	// (the top half lives on the per-block entry nodes).
	m.C[spreaderCenter] += p.CopperVolHeat * dieA * p.SpreaderThickM / 2

	// Spreader centre <-> periphery sides (W, E, S, N).
	spPeriphA := (spA - dieA) / 4
	for side := 0; side < 4; side++ {
		node := firstPkg + offSpreaderSide + side
		m.C[node] += p.CopperVolHeat * spPeriphA * p.SpreaderThickM
		edgeLen := dieH // W, E sides border the die's vertical edges
		dieExt := dieW
		if side >= 2 { // S, N
			edgeLen = dieW
			dieExt = dieH
		}
		dist := (p.SpreaderSideM-dieExt)/4 + dieExt/4
		r := p.CopperResistivity * dist / (p.SpreaderThickM * edgeLen)
		sb.StampConductance(spreaderCenter, node, 1/r)
		// Periphery down into the sink centre slab through TIM2.
		rv := p.CopperResistivity*(p.SpreaderThickM/2)/spPeriphA +
			p.TIM2Resistivity*p.TIM2ThicknessM/spPeriphA +
			p.CopperResistivity*(p.SinkThickM/2)/spPeriphA
		sb.StampConductance(node, sinkCenter, 1/rv)
	}

	// Spreader centre down to sink centre through TIM2.
	rv := p.CopperResistivity*(p.SpreaderThickM/2)/dieA +
		p.TIM2Resistivity*p.TIM2ThicknessM/dieA +
		p.CopperResistivity*(p.SinkThickM/2)/dieA
	sb.StampConductance(spreaderCenter, sinkCenter, 1/rv)

	// Sink centre (the slab under the spreader footprint).
	m.C[sinkCenter] += p.CopperVolHeat * spA * p.SinkThickM

	// Sink centre <-> sink periphery sides.
	sinkPeriphA := (sinkA - spA) / 4
	for side := 0; side < 4; side++ {
		node := firstPkg + offSinkSide + side
		m.C[node] += p.CopperVolHeat * sinkPeriphA * p.SinkThickM
		dist := (p.SinkSideM-p.SpreaderSideM)/4 + p.SpreaderSideM/4
		r := p.CopperResistivity * dist / (p.SinkThickM * p.SpreaderSideM)
		sb.StampConductance(sinkCenter, node, 1/r)
	}

	// Convection to ambient, split across sink nodes by area so the
	// parallel combination equals ConvectionR exactly; the convection
	// capacitance is distributed the same way.
	stampConv := func(node int, area float64) {
		share := area / sinkA
		g := share / p.ConvectionR
		sb.StampGroundConductance(node, g)
		m.GroundG[node] += g
		m.C[node] += p.ConvectionC * share
	}
	stampConv(sinkCenter, spA)
	for side := 0; side < 4; side++ {
		stampConv(firstPkg+offSinkSide+side, sinkPeriphA)
	}
}

// ExpandPower maps a per-block power vector (W) to a per-node vector.
func (m *Model) ExpandPower(blockPower []float64) ([]float64, error) {
	p := make([]float64, m.NumNodes)
	if err := m.ExpandPowerInto(p, blockPower); err != nil {
		return nil, err
	}
	return p, nil
}

// ExpandPowerInto is ExpandPower writing into a caller-owned dst of
// length NumNodes. dst is fully overwritten.
func (m *Model) ExpandPowerInto(dst, blockPower []float64) error {
	if len(blockPower) != m.numBlocks {
		return fmt.Errorf("thermal: power vector has %d entries, model has %d blocks", len(blockPower), m.numBlocks)
	}
	if len(dst) != m.NumNodes {
		return fmt.Errorf("thermal: power destination has %d entries, model has %d nodes", len(dst), m.NumNodes)
	}
	for i := range dst {
		dst[i] = 0
	}
	for _, e := range m.powerEntries {
		dst[e.node] += e.frac * blockPower[e.block]
	}
	return nil
}

// BlockTemps reduces a per-node temperature vector to per-block
// temperatures (°C), in stack block order. It panics on a wrong-length
// input (a wiring bug), keeping the old loud out-of-range failure
// instead of silently returning a nil field.
func (m *Model) BlockTemps(nodeTemps []float64) []float64 {
	out := make([]float64, m.numBlocks)
	if err := m.BlockTempsInto(out, nodeTemps); err != nil {
		panic(err)
	}
	return out
}

// BlockTempsInto is BlockTemps writing into a caller-owned dst of length
// NumBlocks. dst is fully overwritten.
func (m *Model) BlockTempsInto(dst, nodeTemps []float64) error {
	if len(dst) != m.numBlocks {
		return fmt.Errorf("thermal: block temps destination has %d entries, model has %d blocks", len(dst), m.numBlocks)
	}
	if len(nodeTemps) != m.NumNodes {
		return fmt.Errorf("thermal: got %d node temps, model has %d nodes", len(nodeTemps), m.NumNodes)
	}
	for b, entries := range m.readback {
		s := 0.0
		for _, e := range entries {
			s += e.w * nodeTemps[e.node]
		}
		dst[b] = s
	}
	return nil
}

// CoreTemps extracts per-core temperatures (°C, indexed by CoreID) from a
// per-node temperature vector. Like BlockTemps it panics on a
// wrong-length input.
func (m *Model) CoreTemps(nodeTemps []float64) []float64 {
	out := make([]float64, len(m.coreBlock))
	if err := m.CoreTempsInto(out, nodeTemps); err != nil {
		panic(err)
	}
	return out
}

// CoreTempsInto is CoreTemps writing into a caller-owned dst of length
// NumCores. It reads each core's block directly from the node vector, so
// no per-block scratch is needed.
func (m *Model) CoreTempsInto(dst, nodeTemps []float64) error {
	if len(dst) != len(m.coreBlock) {
		return fmt.Errorf("thermal: core temps destination has %d entries, stack has %d cores", len(dst), len(m.coreBlock))
	}
	if len(nodeTemps) != m.NumNodes {
		return fmt.Errorf("thermal: got %d node temps, model has %d nodes", len(nodeTemps), m.NumNodes)
	}
	for id, b := range m.coreBlock {
		s := 0.0
		for _, e := range m.readback[b] {
			s += e.w * nodeTemps[e.node]
		}
		dst[id] = s
	}
	return nil
}

// SteadyState solves for the equilibrium temperature (°C per node) under
// the given per-block power (W), using the model's memoized sparse
// factorization of G (SolverCached).
func (m *Model) SteadyState(blockPower []float64) ([]float64, error) {
	return m.SteadyStateWith(blockPower, SolverCached)
}

// SteadyStateWith is SteadyState with an explicit solver path, used by
// cross-validation tests and benchmarks.
func (m *Model) SteadyStateWith(blockPower []float64, kind SolverKind) ([]float64, error) {
	pn, err := m.ExpandPower(blockPower)
	if err != nil {
		return nil, err
	}
	var dt []float64
	if kind == SolverDense {
		dt, err = linalg.SolveDense(m.G.ToDense(), pn)
	} else {
		var f *linalg.Cholesky
		if f, err = m.steadyFactor(kind); err == nil {
			dt = pn
			err = f.Solve(dt, pn)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("thermal: steady-state solve failed: %w", err)
	}
	for i := range dt {
		dt[i] += m.Params.AmbientC
	}
	return dt, nil
}

// AmbientHeatFlow returns the total heat flowing into the ambient (W) for
// the given node temperatures; at steady state it equals the total
// injected power.
func (m *Model) AmbientHeatFlow(nodeTemps []float64) float64 {
	q := 0.0
	for i, g := range m.GroundG {
		if g > 0 {
			q += g * (nodeTemps[i] - m.Params.AmbientC)
		}
	}
	return q
}
