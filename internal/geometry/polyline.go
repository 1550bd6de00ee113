package geometry

import (
	"fmt"
	"math"
)

// Polyline is an ordered sequence of points; consecutive points define its
// segments. A fault trajectory is one polyline per circuit component.
type Polyline []Point

// Segments returns the polyline's segments in order. A polyline with
// fewer than two points has none.
func (pl Polyline) Segments() []Segment {
	if len(pl) < 2 {
		return nil
	}
	out := make([]Segment, 0, len(pl)-1)
	for i := 0; i+1 < len(pl); i++ {
		out = append(out, Segment{pl[i], pl[i+1]})
	}
	return out
}

// Length returns the total arc length.
func (pl Polyline) Length() float64 {
	var l float64
	for _, s := range pl.Segments() {
		l += s.Length()
	}
	return l
}

// Box returns the bounding box of the polyline; the zero box for an empty
// polyline.
func (pl Polyline) Box() BoundingBox {
	if len(pl) == 0 {
		return BoundingBox{}
	}
	b := BoundingBox{Min: pl[0], Max: pl[0]}
	for _, p := range pl[1:] {
		b.Min.X = math.Min(b.Min.X, p.X)
		b.Min.Y = math.Min(b.Min.Y, p.Y)
		b.Max.X = math.Max(b.Max.X, p.X)
		b.Max.Y = math.Max(b.Max.Y, p.Y)
	}
	return b
}

// NearestSegment returns the index of the segment nearest to p, the
// projection onto it, and whether the polyline had any segments.
func (pl Polyline) NearestSegment(p Point) (int, Projection, bool) {
	segs := pl.Segments()
	if len(segs) == 0 {
		return 0, Projection{}, false
	}
	best := 0
	bestProj := Project(p, segs[0])
	for i := 1; i < len(segs); i++ {
		if pr := Project(p, segs[i]); pr.Dist < bestProj.Dist {
			best, bestProj = i, pr
		}
	}
	return best, bestProj, true
}

// DistTo returns the distance from p to the polyline (infinite for an
// empty one).
func (pl Polyline) DistTo(p Point) float64 {
	_, pr, ok := pl.NearestSegment(p)
	if !ok {
		return math.Inf(1)
	}
	return pr.Dist
}

// ArcParam returns the normalized arc-length parameter in [0,1] of the
// point at segment index i, local parameter t (clamped). It lets the
// diagnosis stage turn a projection foot into a deviation estimate.
func (pl Polyline) ArcParam(i int, t float64) float64 {
	segs := pl.Segments()
	if len(segs) == 0 {
		return 0
	}
	if i < 0 {
		i = 0
	}
	if i >= len(segs) {
		i = len(segs) - 1
	}
	t = math.Max(0, math.Min(1, t))
	total := pl.Length()
	if total == 0 {
		return 0
	}
	var acc float64
	for j := 0; j < i; j++ {
		acc += segs[j].Length()
	}
	acc += t * segs[i].Length()
	return acc / total
}

// IntersectionCount counts intersection points between two polylines.
// Endpoint touches can be counted or not via countTouches; collinear
// overlaps always count (a shared pathway is the worst case for
// distinguishability, per the paper's fitness criterion).
func IntersectionCount(a, b Polyline, countTouches bool) int {
	sa, sb := a.Segments(), b.Segments()
	if len(sa) == 0 || len(sb) == 0 {
		return 0
	}
	if !a.Box().Overlaps(b.Box()) {
		return 0
	}
	count := 0
	for _, s := range sa {
		bs := BoxOf(s)
		for _, t := range sb {
			if !bs.Overlaps(BoxOf(t)) {
				continue
			}
			switch k, _ := Intersect(s, t); k {
			case ProperCrossing, CollinearOverlap:
				count++
			case EndpointTouch:
				if countTouches {
					count++
				}
			}
		}
	}
	return count
}

// offOriginCount reports whether the segment pair contributes one
// off-origin intersection: a point meeting farther than tol from origin,
// or a collinear overlap with an endpoint farther than tol.
func offOriginCount(s, t Segment, origin Point, tol float64) int {
	k, p := Intersect(s, t)
	switch k {
	case ProperCrossing, EndpointTouch:
		if normCmp(p.Sub(origin), tol) > 0 {
			return 1
		}
	case CollinearOverlap:
		// Overlap away from the origin is a common pathway.
		if overlapLeavesOrigin(s, t, origin, tol) {
			return 1
		}
	}
	return 0
}

// SegmentBoxes fills dst (resliced, reallocated only if too small) with
// the per-segment bounding boxes of pl, each expanded by Eps so the
// Eps-tolerant intersection predicates can never find a meeting outside
// the boxes. Precomputing these once per polyline lets the pairwise
// counters skip disjoint segment pairs without rebuilding boxes per pair.
func (pl Polyline) SegmentBoxes(dst []BoundingBox) []BoundingBox {
	dst = dst[:0]
	for i := 0; i+1 < len(pl); i++ {
		dst = append(dst, BoxOf(Segment{pl[i], pl[i+1]}).Expand(Eps))
	}
	return dst
}

// SharedOriginIntersectionsBoxed counts intersections between two
// polylines that both pass through a common point (the golden origin in
// the fault-trajectory plane), excluding meetings that happen within tol
// of that shared point — those are structural, not diagnostic
// ambiguity. Collinear overlaps count when a segment endpoint lies
// farther than tol from origin.
//
// The caller passes per-segment boxes (from SegmentBoxes) and
// whole-polyline boxes (the union of each polyline's segment boxes).
// Segment pairs with disjoint boxes are skipped before any intersection
// predicate runs, and when the two polylines' boxes only overlap within
// tol of the origin — trajectories leaving the origin into different
// regions of the plane — every point intersection is structural by
// construction, so only collinear overlaps are still tested. For finite
// coordinates the boxes change no count (a segment with a NaN coordinate
// has a NaN box and is skipped); nothing is allocated.
func SharedOriginIntersectionsBoxed(a, b Polyline, aSeg, bSeg []BoundingBox, aBox, bBox BoundingBox, origin Point, tol float64) int {
	if !aBox.Overlaps(bBox) {
		return 0
	}
	// The overlap region contains every point where the polylines can
	// meet. If its farthest corner is within tol of the origin, any
	// ProperCrossing or EndpointTouch found there would be excluded as
	// structural — only CollinearOverlap can still count, because its
	// counting criterion looks at segment endpoints, which may lie
	// outside the overlap region.
	lo := Point{maxf(aBox.Min.X, bBox.Min.X), maxf(aBox.Min.Y, bBox.Min.Y)}
	hi := Point{minf(aBox.Max.X, bBox.Max.X), minf(aBox.Max.Y, bBox.Max.Y)}
	collinearOnly := cornersWithin(lo, hi, origin, tol)

	count := 0
	for i := range aSeg {
		if !aSeg[i].Overlaps(bBox) {
			continue
		}
		s := Segment{a[i], a[i+1]}
		for j := range bSeg {
			if !aSeg[i].Overlaps(bSeg[j]) {
				continue
			}
			t := Segment{b[j], b[j+1]}
			if collinearOnly {
				if k, _ := Intersect(s, t); k == CollinearOverlap && overlapLeavesOrigin(s, t, origin, tol) {
					count++
				}
				continue
			}
			count += offOriginCount(s, t, origin, tol)
		}
	}
	return count
}

// cornersWithin reports whether the largest distance from origin to the
// rectangle [lo, hi] — attained at one of its corners — is at most tol.
// As with a running maximum seeded by the first corner, a NaN first
// distance fails and later NaN distances are skipped.
func cornersWithin(lo, hi, origin Point, tol float64) bool {
	return normCmp(origin.Sub(lo), tol) < 0 &&
		normCmp(origin.Sub(hi), tol) <= 0 &&
		normCmp(origin.Sub(Point{lo.X, hi.Y}), tol) <= 0 &&
		normCmp(origin.Sub(Point{hi.X, lo.Y}), tol) <= 0
}

// overlapLeavesOrigin reports whether the farthest endpoint of s and t
// lies more than tol from origin. As with a running maximum seeded by
// s.A, a NaN distance for s.A fails and later NaN distances are skipped.
func overlapLeavesOrigin(s, t Segment, origin Point, tol float64) bool {
	switch normCmp(s.A.Sub(origin), tol) {
	case 1:
		return true
	case 0:
		return false
	}
	return normCmp(s.B.Sub(origin), tol) > 0 ||
		normCmp(t.A.Sub(origin), tol) > 0 ||
		normCmp(t.B.Sub(origin), tol) > 0
}

// SelfIntersections counts proper self-crossings of a polyline, ignoring
// the inevitable endpoint sharing of consecutive segments.
func (pl Polyline) SelfIntersections() int {
	segs := pl.Segments()
	count := 0
	for i := 0; i < len(segs); i++ {
		for j := i + 2; j < len(segs); j++ {
			k, _ := Intersect(segs[i], segs[j])
			if k == ProperCrossing || k == CollinearOverlap {
				count++
			}
		}
	}
	return count
}

// OverlapLength estimates the length of a's portion that lies within tol
// of b, sampled at n points per segment. This is the "common pathway"
// metric the paper's fitness criterion wants minimized alongside
// intersections.
func OverlapLength(a, b Polyline, tol float64, n int) float64 {
	if n < 2 {
		n = 2
	}
	var overlap float64
	for _, s := range a.Segments() {
		step := s.Length() / float64(n-1)
		inside := 0
		for i := 0; i < n; i++ {
			t := float64(i) / float64(n-1)
			p := s.A.Add(s.B.Sub(s.A).Scale(t))
			if b.DistTo(p) <= tol {
				inside++
			}
		}
		overlap += step * float64(inside)
	}
	return overlap
}

// Validate reports an error for polylines with NaN/Inf coordinates, which
// would poison the geometric predicates silently.
func (pl Polyline) Validate() error {
	for i, p := range pl {
		if math.IsNaN(p.X) || math.IsNaN(p.Y) || math.IsInf(p.X, 0) || math.IsInf(p.Y, 0) {
			return fmt.Errorf("geometry: polyline point %d is not finite: %v", i, p)
		}
	}
	return nil
}
