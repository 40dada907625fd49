package geometry

import (
	"fmt"
	"math"
)

// Eps is the tolerance, in millimetres, used for geometric comparisons.
// Floorplan dimensions are on the order of millimetres, so a nanometre
// tolerance is far below manufacturing grid resolution while comfortably
// absorbing float64 rounding.
const Eps = 1e-9

// Rect is an axis-aligned rectangle [X, X+W) x [Y, Y+H).
type Rect struct {
	X, Y float64 // lower-left corner, mm
	W, H float64 // width (x extent) and height (y extent), mm
}

// NewRect returns a rectangle and validates that its extents are positive.
func NewRect(x, y, w, h float64) (Rect, error) {
	r := Rect{X: x, Y: y, W: w, H: h}
	if w <= 0 || h <= 0 {
		return r, fmt.Errorf("geometry: rectangle extents must be positive, got w=%g h=%g", w, h)
	}
	return r, nil
}

// MustRect is like NewRect but panics on invalid extents. It is intended
// for statically known floorplan literals.
func MustRect(x, y, w, h float64) Rect {
	r, err := NewRect(x, y, w, h)
	if err != nil {
		panic(err)
	}
	return r
}

// Area returns the area of r in mm².
func (r Rect) Area() float64 { return r.W * r.H }

// Right returns the x coordinate of the right edge.
func (r Rect) Right() float64 { return r.X + r.W }

// Top returns the y coordinate of the top edge.
func (r Rect) Top() float64 { return r.Y + r.H }

// Center returns the centroid of r.
func (r Rect) Center() (cx, cy float64) { return r.X + r.W/2, r.Y + r.H/2 }

// Contains reports whether the point (px, py) lies inside r
// (boundaries included, within Eps).
func (r Rect) Contains(px, py float64) bool {
	return px >= r.X-Eps && px <= r.Right()+Eps &&
		py >= r.Y-Eps && py <= r.Top()+Eps
}

// ContainsRect reports whether s lies entirely within r (within Eps).
func (r Rect) ContainsRect(s Rect) bool {
	return s.X >= r.X-Eps && s.Right() <= r.Right()+Eps &&
		s.Y >= r.Y-Eps && s.Top() <= r.Top()+Eps
}

// Intersect returns the overlapping region of r and s and whether the
// overlap has positive area. Touching edges do not count as overlap.
func (r Rect) Intersect(s Rect) (Rect, bool) {
	x0 := math.Max(r.X, s.X)
	y0 := math.Max(r.Y, s.Y)
	x1 := math.Min(r.Right(), s.Right())
	y1 := math.Min(r.Top(), s.Top())
	if x1-x0 <= Eps || y1-y0 <= Eps {
		return Rect{}, false
	}
	return Rect{X: x0, Y: y0, W: x1 - x0, H: y1 - y0}, true
}

// OverlapArea returns the area of the intersection of r and s (0 if disjoint).
func (r Rect) OverlapArea(s Rect) float64 {
	in, ok := r.Intersect(s)
	if !ok {
		return 0
	}
	return in.Area()
}

// SharedBoundary returns the length of the boundary segment shared by r and
// s when they abut without overlapping. Two rectangles that overlap with
// positive area share no boundary in this sense (the lateral thermal
// resistance model only applies between non-overlapping neighbours).
func (r Rect) SharedBoundary(s Rect) float64 {
	// Vertical adjacency: r's right edge meets s's left edge or vice versa.
	if math.Abs(r.Right()-s.X) <= Eps || math.Abs(s.Right()-r.X) <= Eps {
		lo := math.Max(r.Y, s.Y)
		hi := math.Min(r.Top(), s.Top())
		if hi-lo > Eps {
			return hi - lo
		}
	}
	// Horizontal adjacency: r's top edge meets s's bottom edge or vice versa.
	if math.Abs(r.Top()-s.Y) <= Eps || math.Abs(s.Top()-r.Y) <= Eps {
		lo := math.Max(r.X, s.X)
		hi := math.Min(r.Right(), s.Right())
		if hi-lo > Eps {
			return hi - lo
		}
	}
	return 0
}

// CenterDistance returns the Euclidean distance between the centroids of
// r and s, in millimetres.
func (r Rect) CenterDistance(s Rect) float64 {
	rx, ry := r.Center()
	sx, sy := s.Center()
	return math.Hypot(rx-sx, ry-sy)
}

// Centrality returns a measure in [0, 1] of how close the centroid of r is
// to the centroid of the enclosing rectangle outer: 1 at the exact centre,
// 0 at the outer corners. It is used by floorplan-aware policies
// (DVFS_FLP) which assume central blocks run hotter.
func (r Rect) Centrality(outer Rect) float64 {
	ox, oy := outer.Center()
	cx, cy := r.Center()
	d := math.Hypot(cx-ox, cy-oy)
	half := math.Hypot(outer.W/2, outer.H/2)
	if half <= 0 {
		return 1
	}
	c := 1 - d/half
	if c < 0 {
		return 0
	}
	return c
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("Rect(%.3f,%.3f %.3fx%.3f)", r.X, r.Y, r.W, r.H)
}
