package geometry

import (
	"fmt"
	"math"
)

// VecN is a point (or vector) in R^k for test vectors with k > 2
// frequencies. The paper uses k = 2; the k-D generalization powers the
// frequency-count ablation (experiment E6).
type VecN []float64

// DistN returns the Euclidean distance between a and b, which must have
// equal dimension.
func DistN(a, b VecN) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("geometry: DistN dims %d vs %d", len(a), len(b)))
	}
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// SubN returns a - b.
func SubN(a, b VecN) VecN {
	if len(a) != len(b) {
		panic(fmt.Sprintf("geometry: SubN dims %d vs %d", len(a), len(b)))
	}
	out := make(VecN, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// DotN returns the dot product.
func DotN(a, b VecN) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("geometry: DotN dims %d vs %d", len(a), len(b)))
	}
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// NormN returns the Euclidean norm.
func NormN(a VecN) float64 { return math.Sqrt(DotN(a, a)) }

// ProjectionN is the k-dimensional analogue of Projection.
type ProjectionN struct {
	Foot     VecN
	T        float64
	Dist     float64
	Interior bool
}

// ProjectN drops a perpendicular from p onto the segment a→b in R^k.
func ProjectN(p, a, b VecN) ProjectionN {
	d := SubN(b, a)
	l2 := DotN(d, d)
	if l2 <= Eps*Eps {
		return ProjectionN{Foot: append(VecN(nil), a...), T: 0, Dist: DistN(p, a)}
	}
	t := DotN(SubN(p, a), d) / l2
	tc := math.Max(0, math.Min(1, t))
	foot := make(VecN, len(a))
	for i := range foot {
		foot[i] = a[i] + tc*d[i]
	}
	return ProjectionN{Foot: foot, T: t, Dist: DistN(p, foot), Interior: t > 0 && t < 1}
}

// PolylineN is an ordered point sequence in R^k.
type PolylineN []VecN

// Dim returns the dimension of the polyline's points (0 if empty).
func (pl PolylineN) Dim() int {
	if len(pl) == 0 {
		return 0
	}
	return len(pl[0])
}

// LengthN returns the total arc length.
func (pl PolylineN) LengthN() float64 {
	var l float64
	for i := 0; i+1 < len(pl); i++ {
		l += DistN(pl[i], pl[i+1])
	}
	return l
}

// SegmentFoot is the perpendicular foot of a point on one segment of a
// polyline: the segment index (pl[Seg]→pl[Seg+1]), the unclamped line
// parameter T and the distance from the point to the foot clamped onto
// the segment — ProjectN's T and Dist.
type SegmentFoot struct {
	Seg  int
	T    float64
	Dist float64
}

// PolylineProjection holds the two feet the paper's classification step
// reads off a polyline: the nearest foot over all segments, and the
// nearest foot lying strictly inside its segment (0 < T < 1), where the
// perpendicular actually exists.
type PolylineProjection struct {
	Nearest SegmentFoot
	// Interior is meaningful only when HasInterior is set.
	Interior    SegmentFoot
	HasInterior bool
}

// Project drops a perpendicular from p onto every segment of pl in one
// allocation-free pass. Each segment's T and Dist are bit-identical to
// ProjectN on that segment. The first segment seeds Nearest and a later
// one replaces it only when strictly closer; Interior is likewise the
// first strictly-closest interior foot. ok is false when pl has fewer
// than two points. Dimension mismatches panic, as in ProjectN.
func (pl PolylineN) Project(p VecN) (pr PolylineProjection, ok bool) {
	if len(pl) < 2 {
		return PolylineProjection{}, false
	}
	interiorDist := math.Inf(1)
	for i := 0; i+1 < len(pl); i++ {
		t, dist, interior := segmentFoot(p, pl[i], pl[i+1])
		if i == 0 || dist < pr.Nearest.Dist {
			pr.Nearest = SegmentFoot{Seg: i, T: t, Dist: dist}
		}
		if interior && dist < interiorDist {
			interiorDist = dist
			pr.Interior = SegmentFoot{Seg: i, T: t, Dist: dist}
			pr.HasInterior = true
		}
	}
	return pr, true
}

// segmentFoot is ProjectN without the foot vector: the same operations
// in the same order (d = b−a, l2 = d·d, t = (p−a)·d / l2, the clamp, then
// the distance summed over p − (a + tc·d) in coordinate order), so T and
// Dist match it bit for bit.
func segmentFoot(p, a, b VecN) (t, dist float64, interior bool) {
	if len(a) != len(p) || len(b) != len(p) {
		panic(fmt.Sprintf("geometry: projecting a %d-D point onto a %d-D/%d-D segment", len(p), len(a), len(b)))
	}
	p, b = p[:len(a)], b[:len(a)]
	var l2, pd float64
	for i := range a {
		d := b[i] - a[i]
		l2 += d * d
		pd += (p[i] - a[i]) * d
	}
	var s float64
	if l2 <= Eps*Eps {
		for i := range p {
			e := p[i] - a[i]
			s += e * e
		}
		return 0, math.Sqrt(s), false
	}
	t = pd / l2
	tc := math.Max(0, math.Min(1, t))
	for i := range p {
		e := p[i] - (a[i] + tc*(b[i]-a[i]))
		s += e * e
	}
	return t, math.Sqrt(s), t > 0 && t < 1
}

// DistToN returns the distance from p to pl.
func (pl PolylineN) DistToN(p VecN) float64 {
	pr, ok := pl.Project(p)
	if !ok {
		return math.Inf(1)
	}
	return pr.Nearest.Dist
}

// Project2D returns the 2D polyline of coordinates (i, j) of each point,
// used to count intersections of k-D trajectories in coordinate-plane
// projections.
func (pl PolylineN) Project2D(i, j int) Polyline {
	out := make(Polyline, len(pl))
	for k, p := range pl {
		out[k] = Point{p[i], p[j]}
	}
	return out
}

// PairwiseProjectedIntersections sums IntersectionCount over every
// coordinate-plane projection of two k-D polylines. For k = 2 it reduces
// to the paper's planar intersection count.
func PairwiseProjectedIntersections(a, b PolylineN, countTouches bool) int {
	dim := a.Dim()
	if bd := b.Dim(); bd != dim {
		panic(fmt.Sprintf("geometry: projected intersections of dims %d vs %d", dim, bd))
	}
	if dim < 2 {
		// In R^1 trajectories are intervals; count overlap as one
		// intersection if the intervals overlap.
		if dim == 0 || len(a) == 0 || len(b) == 0 {
			return 0
		}
		amin, amax := minMax1(a)
		bmin, bmax := minMax1(b)
		if amin <= bmax && bmin <= amax {
			return 1
		}
		return 0
	}
	total := 0
	for i := 0; i < dim; i++ {
		for j := i + 1; j < dim; j++ {
			total += IntersectionCount(a.Project2D(i, j), b.Project2D(i, j), countTouches)
		}
	}
	return total
}

func minMax1(pl PolylineN) (float64, float64) {
	mn, mx := pl[0][0], pl[0][0]
	for _, p := range pl[1:] {
		mn = math.Min(mn, p[0])
		mx = math.Max(mx, p[0])
	}
	return mn, mx
}

// MinDistN returns the smallest distance between any vertex of a and the
// polyline b — a separation proxy for k-D trajectories, cheaper than true
// segment-segment distance and adequate for densely sampled trajectories.
func MinDistN(a, b PolylineN) float64 {
	best := math.Inf(1)
	for _, p := range a {
		if d := b.DistToN(p); d < best {
			best = d
		}
	}
	for _, p := range b {
		if d := a.DistToN(p); d < best {
			best = d
		}
	}
	return best
}
