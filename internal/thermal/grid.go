package thermal

import (
	"fmt"

	"repro/internal/floorplan"
	"repro/internal/geometry"
	"repro/internal/linalg"
)

// NewGridModel builds a grid-mode network: each silicon layer is divided
// into rows x cols uniform cells (HotSpot's grid model), block power is
// spread over the cells a block overlaps, and per-block temperatures are
// read back as area-weighted cell averages. The package model is shared
// with block mode.
//
// Grid mode is the reference model the paper uses (HotSpot 4.2 grid); the
// cheaper block mode is cross-validated against it in tests.
func NewGridModel(stack *floorplan.Stack, p Params, rows, cols int) (*Model, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := stack.Validate(); err != nil {
		return nil, err
	}
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("thermal: grid dimensions must be positive, got %dx%d", rows, cols)
	}
	blocks := stack.Blocks()
	nl := len(stack.Layers)
	cellsPerLayer := rows * cols
	nCells := nl * cellsPerLayer
	// One spreader entry node per bottom-layer cell (see NewBlockModel).
	nEntry := cellsPerLayer
	n := nCells + nEntry + numPackageNodes

	m := &Model{
		Params:    p,
		Stack:     stack,
		NumNodes:  n,
		C:         make([]float64, n),
		GroundG:   make([]float64, n),
		numBlocks: len(blocks),
	}
	sb := linalg.NewSparseBuilder(n)

	bounds := stack.Layers[0].Bounds()
	grid, err := geometry.NewGrid(bounds, rows, cols)
	if err != nil {
		return nil, err
	}
	cellW := grid.CellW() * mmToM
	cellH := grid.CellH() * mmToM
	cellA := cellW * cellH

	node := func(layer, row, col int) int { return layer*cellsPerLayer + row*cols + col }

	// Cell capacitances and in-plane conduction.
	for li, layer := range stack.Layers {
		t := layer.ThicknessMM * mmToM
		gx := 1 / (p.SiliconResistivity * cellW / (t * cellH)) // east-west
		gy := 1 / (p.SiliconResistivity * cellH / (t * cellW)) // north-south
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				i := node(li, r, c)
				m.C[i] += p.SiliconVolHeat * cellA * t
				if c+1 < cols {
					sb.StampConductance(i, node(li, r, c+1), gx)
				}
				if r+1 < rows {
					sb.StampConductance(i, node(li, r+1, c), gy)
				}
			}
		}
	}

	// Vertical conduction between layers through the interface material
	// (resolved per interface so spec-built stacks can vary bonding
	// properties between tiers).
	for li := 0; li+1 < nl; li++ {
		ifc := stack.Interface(li)
		rhoInt := ifc.ResistivityMKW
		tInt := ifc.ThicknessMM * mmToM
		tl := stack.Layers[li].ThicknessMM * mmToM
		tu := stack.Layers[li+1].ThicknessMM * mmToM
		r := p.SiliconResistivity*(tl/2)/cellA + rhoInt*tInt/cellA + p.SiliconResistivity*(tu/2)/cellA
		cInt := p.InterlayerVolHeat * cellA * tInt / 2
		// Interlayer microfluidic cooling (see NewBlockModel): every
		// cell face adjacent to a cooled interface convects to coolant
		// at ambient through a linearized ground conductance.
		gCool := ifc.CoolantHTCWm2K * cellA
		for rI := 0; rI < rows; rI++ {
			for c := 0; c < cols; c++ {
				lo := node(li, rI, c)
				hi := node(li+1, rI, c)
				sb.StampConductance(lo, hi, 1/r)
				m.C[lo] += cInt
				m.C[hi] += cInt
				if gCool > 0 {
					sb.StampGroundConductance(lo, gCool)
					sb.StampGroundConductance(hi, gCool)
					m.GroundG[lo] += gCool
					m.GroundG[hi] += gCool
				}
			}
		}
	}

	// Bottom layer into the package through per-cell entry nodes.
	tBot := stack.Layers[0].ThicknessMM * mmToM
	firstPkg := nCells + nEntry
	spreaderCenter := firstPkg + offSpreaderCenter
	rIn := p.SiliconResistivity*(tBot/2)/cellA + p.TIMResistivity*p.TIMThicknessM/cellA
	rDown := p.CopperResistivity * (p.SpreaderThickM / 2) / cellA
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			entry := nCells + r*cols + c
			sb.StampConductance(node(0, r, c), entry, 1/rIn)
			sb.StampConductance(entry, spreaderCenter, 1/rDown)
			stampSpreaderLateral(sb, p, entry, grid.Cell(r, c), bounds, firstPkg)
			m.C[entry] += p.CopperVolHeat * cellA * p.SpreaderThickM / 2
		}
	}

	// Power spreading and temperature readback per block.
	powerFrac := make(map[int]map[int]float64)
	blockReadback := make(map[int]map[int]float64, len(blocks))
	for bi, b := range blocks {
		fr := grid.OverlapFractions(b.Rect)
		if len(fr) == 0 {
			return nil, fmt.Errorf("thermal: block %q overlaps no grid cell", b.Name)
		}
		read := make(map[int]float64, len(fr))
		for cell, f := range fr {
			nd := b.Layer*cellsPerLayer + cell
			if powerFrac[nd] == nil {
				powerFrac[nd] = make(map[int]float64)
			}
			powerFrac[nd][bi] += f
			read[nd] = f // fractions of the block's area => weighted mean
		}
		blockReadback[bi] = read
	}

	m.buildPackage(sb, firstPkg, bounds.W*mmToM, bounds.H*mmToM)
	m.G = sb.Build()
	m.finalizeHotPath(powerFrac, blockReadback)
	return m, nil
}
