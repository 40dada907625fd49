package geometry

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestNewRectValidation(t *testing.T) {
	if _, err := NewRect(0, 0, -1, 1); err == nil {
		t.Error("negative width accepted")
	}
	if _, err := NewRect(0, 0, 1, 0); err == nil {
		t.Error("zero height accepted")
	}
	if _, err := NewRect(0, 0, 2, 3); err != nil {
		t.Errorf("valid rect rejected: %v", err)
	}
}

func TestMustRectPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustRect did not panic on invalid extents")
		}
	}()
	MustRect(0, 0, 0, 1)
}

func TestAreaAndEdges(t *testing.T) {
	r := MustRect(1, 2, 3, 4)
	if !almostEq(r.Area(), 12) {
		t.Errorf("Area = %g, want 12", r.Area())
	}
	if !almostEq(r.Right(), 4) || !almostEq(r.Top(), 6) {
		t.Errorf("Right/Top = %g/%g, want 4/6", r.Right(), r.Top())
	}
	cx, cy := r.Center()
	if !almostEq(cx, 2.5) || !almostEq(cy, 4) {
		t.Errorf("Center = (%g,%g), want (2.5,4)", cx, cy)
	}
}

func TestContains(t *testing.T) {
	r := MustRect(0, 0, 10, 5)
	cases := []struct {
		x, y float64
		want bool
	}{
		{5, 2.5, true},
		{0, 0, true},  // corner inclusive
		{10, 5, true}, // opposite corner inclusive
		{10.1, 5, false},
		{-0.1, 2, false},
	}
	for _, c := range cases {
		if got := r.Contains(c.x, c.y); got != c.want {
			t.Errorf("Contains(%g,%g) = %v, want %v", c.x, c.y, got, c.want)
		}
	}
}

func TestContainsRect(t *testing.T) {
	outer := MustRect(0, 0, 10, 10)
	if !outer.ContainsRect(MustRect(1, 1, 3, 3)) {
		t.Error("inner rect not contained")
	}
	if !outer.ContainsRect(outer) {
		t.Error("rect should contain itself")
	}
	if outer.ContainsRect(MustRect(8, 8, 3, 3)) {
		t.Error("overhanging rect reported as contained")
	}
}

func TestIntersect(t *testing.T) {
	a := MustRect(0, 0, 4, 4)
	b := MustRect(2, 2, 4, 4)
	in, ok := a.Intersect(b)
	if !ok {
		t.Fatal("expected overlap")
	}
	if !almostEq(in.X, 2) || !almostEq(in.Y, 2) || !almostEq(in.W, 2) || !almostEq(in.H, 2) {
		t.Errorf("intersection = %v, want Rect(2,2 2x2)", in)
	}
	// Touching rectangles do not overlap.
	c := MustRect(4, 0, 2, 4)
	if _, ok := a.Intersect(c); ok {
		t.Error("edge-touching rects reported as overlapping")
	}
	// Disjoint.
	d := MustRect(10, 10, 1, 1)
	if a.OverlapArea(d) != 0 {
		t.Error("disjoint rects have nonzero overlap area")
	}
}

func TestSharedBoundary(t *testing.T) {
	a := MustRect(0, 0, 4, 4)
	right := MustRect(4, 1, 2, 2)
	if got := a.SharedBoundary(right); !almostEq(got, 2) {
		t.Errorf("vertical shared boundary = %g, want 2", got)
	}
	above := MustRect(1, 4, 5, 1)
	if got := a.SharedBoundary(above); !almostEq(got, 3) {
		t.Errorf("horizontal shared boundary = %g, want 3", got)
	}
	corner := MustRect(4, 4, 1, 1) // touches only at a corner point
	if got := a.SharedBoundary(corner); got != 0 {
		t.Errorf("corner-touching rects share boundary %g, want 0", got)
	}
	far := MustRect(9, 9, 1, 1)
	if got := a.SharedBoundary(far); got != 0 {
		t.Errorf("distant rects share boundary %g, want 0", got)
	}
}

func TestSharedBoundarySymmetric(t *testing.T) {
	a := MustRect(0, 0, 4, 4)
	b := MustRect(4, 1, 2, 6)
	if !almostEq(a.SharedBoundary(b), b.SharedBoundary(a)) {
		t.Error("SharedBoundary not symmetric")
	}
}

func TestCentrality(t *testing.T) {
	outer := MustRect(0, 0, 10, 10)
	center := MustRect(4, 4, 2, 2)
	if got := center.Centrality(outer); !almostEq(got, 1) {
		t.Errorf("centrality of central block = %g, want 1", got)
	}
	corner := MustRect(0, 0, 2, 2)
	edge := MustRect(4, 0, 2, 2)
	if corner.Centrality(outer) >= edge.Centrality(outer) {
		t.Error("corner block should be less central than edge block")
	}
}

func TestCenterDistance(t *testing.T) {
	a := MustRect(0, 0, 2, 2)
	b := MustRect(3, 4, 2, 2)
	if got := a.CenterDistance(b); !almostEq(got, 5) {
		t.Errorf("CenterDistance = %g, want 5", got)
	}
}

// Property: intersection area is symmetric, bounded by the smaller area,
// and zero for translated-apart rectangles.
func TestOverlapAreaProperties(t *testing.T) {
	f := func(ax, ay, bx, by uint8, aw, ah, bw, bh uint8) bool {
		a := MustRect(float64(ax), float64(ay), float64(aw)+1, float64(ah)+1)
		b := MustRect(float64(bx), float64(by), float64(bw)+1, float64(bh)+1)
		o1 := a.OverlapArea(b)
		o2 := b.OverlapArea(a)
		if !almostEq(o1, o2) {
			return false
		}
		if o1 > math.Min(a.Area(), b.Area())+1e-9 {
			return false
		}
		return o1 >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a rectangle fully inside the grid has overlap fractions
// summing to 1.
func TestOverlapFractionsSumToOne(t *testing.T) {
	g, err := NewGrid(MustRect(0, 0, 16, 16), 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	f := func(x, y, w, h uint8) bool {
		rx := float64(x%10) + 0.25
		ry := float64(y%10) + 0.25
		rw := float64(w%5) + 0.5
		rh := float64(h%5) + 0.5
		r := MustRect(rx, ry, rw, rh)
		if !g.Bounds.ContainsRect(r) {
			return true // skip: property only holds for contained rects
		}
		sum := 0.0
		for _, frac := range g.OverlapFractions(r) {
			if frac < 0 || frac > 1+1e-9 {
				return false
			}
			sum += frac
		}
		return math.Abs(sum-1) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestGridBasics(t *testing.T) {
	g, err := NewGrid(MustRect(0, 0, 10, 20), 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(g.CellW(), 2) || !almostEq(g.CellH(), 5) {
		t.Errorf("cell dims = %gx%g, want 2x5", g.CellW(), g.CellH())
	}
	cell := g.Cell(1, 2)
	if !almostEq(cell.X, 4) || !almostEq(cell.Y, 5) {
		t.Errorf("Cell(1,2) at (%g,%g), want (4,5)", cell.X, cell.Y)
	}
	if idx := g.Index(3, 4); idx != 19 {
		t.Errorf("Index(3,4) = %d, want 19 (row-major, 5 columns)", idx)
	}
}

func TestGridValidation(t *testing.T) {
	if _, err := NewGrid(MustRect(0, 0, 1, 1), 0, 4); err == nil {
		t.Error("zero rows accepted")
	}
	if _, err := NewGrid(Rect{W: -1, H: 1}, 2, 2); err == nil {
		t.Error("negative bounds accepted")
	}
}

func TestOverlapFractionsPartial(t *testing.T) {
	g, _ := NewGrid(MustRect(0, 0, 4, 4), 2, 2)
	// Rectangle half inside the grid: fractions should sum to 0.5.
	r := MustRect(2, -2, 2, 4)
	sum := 0.0
	for _, f := range g.OverlapFractions(r) {
		sum += f
	}
	if !almostEq(sum, 0.5) {
		t.Errorf("partial overlap fractions sum = %g, want 0.5", sum)
	}
}
