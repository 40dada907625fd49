package geometry

import "fmt"

// Grid describes a uniform rows x cols partition of a bounding rectangle.
// It is used to map floorplan blocks onto thermal grid cells.
type Grid struct {
	Bounds Rect
	Rows   int // number of cells along Y
	Cols   int // number of cells along X
}

// NewGrid builds a grid over bounds.
func NewGrid(bounds Rect, rows, cols int) (Grid, error) {
	if rows <= 0 || cols <= 0 {
		return Grid{}, fmt.Errorf("geometry: grid dimensions must be positive, got rows=%d cols=%d", rows, cols)
	}
	if bounds.W <= 0 || bounds.H <= 0 {
		return Grid{}, fmt.Errorf("geometry: grid bounds must have positive area, got %v", bounds)
	}
	return Grid{Bounds: bounds, Rows: rows, Cols: cols}, nil
}

// CellW returns the width of one cell.
func (g Grid) CellW() float64 { return g.Bounds.W / float64(g.Cols) }

// CellH returns the height of one cell.
func (g Grid) CellH() float64 { return g.Bounds.H / float64(g.Rows) }

// Cell returns the rectangle of the cell at (row, col). Row 0 is at the
// bottom (lowest Y), column 0 at the left (lowest X).
func (g Grid) Cell(row, col int) Rect {
	return Rect{
		X: g.Bounds.X + float64(col)*g.CellW(),
		Y: g.Bounds.Y + float64(row)*g.CellH(),
		W: g.CellW(),
		H: g.CellH(),
	}
}

// Index maps (row, col) to a linear cell index in row-major order.
func (g Grid) Index(row, col int) int { return row*g.Cols + col }

// OverlapFractions returns, for the given rectangle, the fraction of the
// rectangle's area falling inside each grid cell, as a map from linear cell
// index to fraction. Fractions over all cells sum to the fraction of r
// inside the grid bounds (1.0 when r is fully contained).
func (g Grid) OverlapFractions(r Rect) map[int]float64 {
	out := make(map[int]float64)
	if r.Area() <= 0 {
		return out
	}
	// Restrict the scan to the cell range that can overlap r.
	c0 := clampInt(int((r.X-g.Bounds.X)/g.CellW()), 0, g.Cols-1)
	c1 := clampInt(int((r.Right()-g.Bounds.X)/g.CellW()), 0, g.Cols-1)
	r0 := clampInt(int((r.Y-g.Bounds.Y)/g.CellH()), 0, g.Rows-1)
	r1 := clampInt(int((r.Top()-g.Bounds.Y)/g.CellH()), 0, g.Rows-1)
	for row := r0; row <= r1; row++ {
		for col := c0; col <= c1; col++ {
			a := g.Cell(row, col).OverlapArea(r)
			if a > 0 {
				out[g.Index(row, col)] = a / r.Area()
			}
		}
	}
	return out
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
