// Package geometry implements the 2D (and small-k N-dimensional)
// computational geometry the fault-trajectory method rests on: segment
// intersection tests for the GA fitness function (the paper's "number of
// trajectory intersections" I), and perpendicular point-to-segment
// projection for the diagnosis step (dropping perpendiculars from an
// unknown-fault point onto known trajectories).
package geometry

import (
	"fmt"
	"math"
)

// Eps is the default tolerance used by the orientation and intersection
// predicates. Trajectory coordinates are magnitude differences of filter
// responses, typically O(1) after normalization, so an absolute epsilon is
// appropriate.
const Eps = 1e-12

// Point is a point in the Cartesian trajectory plane.
type Point struct {
	X, Y float64
}

// Add returns p + q as vectors.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q as vectors.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns k·p.
func (p Point) Scale(k float64) Point { return Point{k * p.X, k * p.Y} }

// Dot returns the dot product p·q.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Cross returns the z component of the cross product p×q.
func (p Point) Cross(q Point) float64 { return p.X*q.Y - p.Y*q.X }

// Norm returns the Euclidean length of p as a vector.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return p.Sub(q).Norm() }

// String renders the point as "(x, y)".
func (p Point) String() string { return fmt.Sprintf("(%.6g, %.6g)", p.X, p.Y) }

// Segment is a closed line segment from A to B.
type Segment struct {
	A, B Point
}

// Length returns the segment's Euclidean length.
func (s Segment) Length() float64 { return s.A.Dist(s.B) }

// Midpoint returns the segment's midpoint.
func (s Segment) Midpoint() Point { return s.A.Add(s.B).Scale(0.5) }

// Degenerate reports whether the segment has (near-)zero length.
func (s Segment) Degenerate() bool { return s.Length() <= Eps }

// Orientation classifies the turn a→b→c:
// +1 counter-clockwise, -1 clockwise, 0 collinear (within Eps scaled by
// the operand magnitudes).
//
// With d = b−a and e = c−a the tolerance is Eps·max(|d|·|e|, 1). The
// Euclidean lengths cost two math.Hypot calls, but only cross products
// near the tolerance need them: |d|·|e| lies between ½‖d‖∞‖e‖∞ and
// 2‖d‖₁‖e‖₁ after rounding, so a cross product beyond the upper bound
// or within the lower one is decided without them (a floating-point
// filter in the manner of Shewchuk's adaptive predicates). NaN and
// overflowed bounds fail both tests and take the exact formula, which is
// why the bounds may use the builtin max: its NaN result is harmless
// here.
func Orientation(a, b, c Point) int {
	d, e := b.Sub(a), c.Sub(a)
	v := d.Cross(e)
	dx, dy, ex, ey := math.Abs(d.X), math.Abs(d.Y), math.Abs(e.X), math.Abs(e.Y)
	hi := Eps * max(2*((dx+dy)*(ex+ey)), 1)
	switch {
	case v > hi:
		return 1
	case v < -hi:
		return -1
	case math.Abs(v) <= Eps*max(0.5*(max(dx, dy)*max(ex, ey)), 1):
		return 0
	}
	tol := Eps * math.Max(d.Norm()*e.Norm(), 1)
	switch {
	case v > tol:
		return 1
	case v < -tol:
		return -1
	default:
		return 0
	}
}

// maxf and minf are math.Max and math.Min in a form the compiler
// inlines into the per-pair predicates, with the same special cases: an
// infinity in the direction of the extreme beats NaN (where the builtin
// max and min return NaN), and NaN beats every other value. Of two equal
// zeros of opposite sign either may be returned, which no comparison or
// distance downstream can tell apart.
func maxf(a, b float64) float64 {
	switch {
	case a > b || a == math.Inf(1):
		return a
	case a != a && b != math.Inf(1):
		return a
	}
	return b
}

func minf(a, b float64) float64 {
	switch {
	case a < b || a == math.Inf(-1):
		return a
	case a != a && b != math.Inf(-1):
		return a
	}
	return b
}

// normCmp compares v.Norm() with tol: +1 when v.Norm() > tol, -1 when
// v.Norm() <= tol, 0 when neither holds (a NaN norm or tol). The norm
// lies between ‖v‖∞ and 2‖v‖₁ after rounding, so most comparisons are
// decided without math.Hypot; coordinates with a NaN always take it,
// because Hypot ranks an infinite coordinate above a NaN one.
func normCmp(v Point, tol float64) int {
	ax, ay := math.Abs(v.X), math.Abs(v.Y)
	if s := ax + ay; s == s {
		if ax > tol || ay > tol {
			return 1
		}
		if 2*s <= tol {
			return -1
		}
	}
	switch n := v.Norm(); {
	case n > tol:
		return 1
	case n <= tol:
		return -1
	}
	return 0
}

// onSegmentCollinear reports whether point p, known collinear with s, lies
// within s's bounding box.
func onSegmentCollinear(p Point, s Segment) bool {
	return p.X <= maxf(s.A.X, s.B.X)+Eps && p.X >= minf(s.A.X, s.B.X)-Eps &&
		p.Y <= maxf(s.A.Y, s.B.Y)+Eps && p.Y >= minf(s.A.Y, s.B.Y)-Eps
}

// IntersectKind classifies how two segments meet.
type IntersectKind int

const (
	// NoIntersection: the segments do not meet.
	NoIntersection IntersectKind = iota
	// ProperCrossing: the segments cross at a single interior point of
	// both.
	ProperCrossing
	// EndpointTouch: they meet at a point that is an endpoint of at least
	// one segment.
	EndpointTouch
	// CollinearOverlap: they are collinear and share more than one point.
	CollinearOverlap
)

func (k IntersectKind) String() string {
	switch k {
	case NoIntersection:
		return "none"
	case ProperCrossing:
		return "proper"
	case EndpointTouch:
		return "touch"
	case CollinearOverlap:
		return "overlap"
	default:
		return fmt.Sprintf("IntersectKind(%d)", int(k))
	}
}

// Intersect classifies the intersection of segments s and t and, for
// point intersections, returns the intersection point.
func Intersect(s, t Segment) (IntersectKind, Point) {
	o1 := Orientation(s.A, s.B, t.A)
	o2 := Orientation(s.A, s.B, t.B)
	o3 := Orientation(t.A, t.B, s.A)
	o4 := Orientation(t.A, t.B, s.B)

	if o1 != o2 && o3 != o4 && o1 != 0 && o2 != 0 && o3 != 0 && o4 != 0 {
		// Strict crossing: compute the point by parametric solve.
		d := s.B.Sub(s.A)
		e := t.B.Sub(t.A)
		den := d.Cross(e)
		u := t.A.Sub(s.A).Cross(e) / den
		return ProperCrossing, s.A.Add(d.Scale(u))
	}

	// Collinearity / touching cases.
	collinear := o1 == 0 && o2 == 0 && o3 == 0 && o4 == 0
	if collinear {
		// Project on the dominant axis to test overlap extent. The
		// contact points live on the stack: this branch runs for every
		// collinear segment pair the fitness function meets.
		var buf [4]Point
		pts := buf[:0]
		for _, p := range [2]Point{t.A, t.B} {
			if onSegmentCollinear(p, s) {
				pts = append(pts, p)
			}
		}
		for _, p := range [2]Point{s.A, s.B} {
			if onSegmentCollinear(p, t) {
				pts = append(pts, p)
			}
		}
		if len(pts) == 0 {
			return NoIntersection, Point{}
		}
		// Distinct contact points → overlap; all coincident → touch.
		first := pts[0]
		for _, p := range pts[1:] {
			if normCmp(p.Sub(first), Eps) > 0 {
				return CollinearOverlap, first
			}
		}
		return EndpointTouch, first
	}

	// Non-collinear but some orientation is zero: a T-junction or
	// endpoint meeting.
	if o1 == 0 && onSegmentCollinear(t.A, s) {
		return EndpointTouch, t.A
	}
	if o2 == 0 && onSegmentCollinear(t.B, s) {
		return EndpointTouch, t.B
	}
	if o3 == 0 && onSegmentCollinear(s.A, t) {
		return EndpointTouch, s.A
	}
	if o4 == 0 && onSegmentCollinear(s.B, t) {
		return EndpointTouch, s.B
	}
	return NoIntersection, Point{}
}

// Crosses reports whether segments s and t share at least one point.
func Crosses(s, t Segment) bool {
	k, _ := Intersect(s, t)
	return k != NoIntersection
}

// Projection is the result of dropping a perpendicular from a point onto
// the line through a segment.
type Projection struct {
	// Foot is the closest point on the closed segment.
	Foot Point
	// T is the line parameter: 0 at A, 1 at B; values outside [0,1] mean
	// the perpendicular foot fell outside the segment.
	T float64
	// Dist is the distance from the query point to Foot.
	Dist float64
	// Interior reports whether the perpendicular foot lies strictly
	// within the segment (the paper's "a perpendicular exists").
	Interior bool
}

// Project drops a perpendicular from p onto segment s. For degenerate
// segments the projection collapses to the endpoint.
func Project(p Point, s Segment) Projection {
	d := s.B.Sub(s.A)
	l2 := d.Dot(d)
	if l2 <= Eps*Eps {
		return Projection{Foot: s.A, T: 0, Dist: p.Dist(s.A), Interior: false}
	}
	t := p.Sub(s.A).Dot(d) / l2
	tc := math.Max(0, math.Min(1, t))
	foot := s.A.Add(d.Scale(tc))
	return Projection{
		Foot:     foot,
		T:        t,
		Dist:     p.Dist(foot),
		Interior: t > 0 && t < 1,
	}
}

// DistToSegment returns the distance from p to the closed segment s.
func DistToSegment(p Point, s Segment) float64 { return Project(p, s).Dist }

// BoundingBox is an axis-aligned rectangle.
type BoundingBox struct {
	Min, Max Point
}

// BoxOf returns the bounding box of a segment.
func BoxOf(s Segment) BoundingBox {
	return BoundingBox{
		Min: Point{minf(s.A.X, s.B.X), minf(s.A.Y, s.B.Y)},
		Max: Point{maxf(s.A.X, s.B.X), maxf(s.A.Y, s.B.Y)},
	}
}

// Expand grows the box by margin on every side.
func (b BoundingBox) Expand(margin float64) BoundingBox {
	return BoundingBox{
		Min: Point{b.Min.X - margin, b.Min.Y - margin},
		Max: Point{b.Max.X + margin, b.Max.Y + margin},
	}
}

// Overlaps reports whether two boxes intersect (closed).
func (b BoundingBox) Overlaps(o BoundingBox) bool {
	return b.Min.X <= o.Max.X && o.Min.X <= b.Max.X &&
		b.Min.Y <= o.Max.Y && o.Min.Y <= b.Max.Y
}

// Contains reports whether the box contains p (closed).
func (b BoundingBox) Contains(p Point) bool {
	return p.X >= b.Min.X && p.X <= b.Max.X && p.Y >= b.Min.Y && p.Y <= b.Max.Y
}

// Union returns the smallest box containing both.
func (b BoundingBox) Union(o BoundingBox) BoundingBox {
	return BoundingBox{
		Min: Point{minf(b.Min.X, o.Min.X), minf(b.Min.Y, o.Min.Y)},
		Max: Point{maxf(b.Max.X, o.Max.X), maxf(b.Max.Y, o.Max.Y)},
	}
}
