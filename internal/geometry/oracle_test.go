package geometry

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// The predicates below are the intersection predicates as they were
// before Orientation, the distance checks and the boxes learned to decide
// by cheap bounds first. They compute every tolerance with math.Hypot and
// every extreme with math.Max/math.Min, and serve as the reference the
// production predicates must match decision for decision.

func oracleOrientation(a, b, c Point) int {
	v := b.Sub(a).Cross(c.Sub(a))
	scale := b.Sub(a).Norm() * c.Sub(a).Norm()
	tol := Eps * math.Max(scale, 1)
	switch {
	case v > tol:
		return 1
	case v < -tol:
		return -1
	default:
		return 0
	}
}

func oracleOnSegmentCollinear(p Point, s Segment) bool {
	return p.X <= math.Max(s.A.X, s.B.X)+Eps && p.X >= math.Min(s.A.X, s.B.X)-Eps &&
		p.Y <= math.Max(s.A.Y, s.B.Y)+Eps && p.Y >= math.Min(s.A.Y, s.B.Y)-Eps
}

func oracleIntersect(s, t Segment) (IntersectKind, Point) {
	o1 := oracleOrientation(s.A, s.B, t.A)
	o2 := oracleOrientation(s.A, s.B, t.B)
	o3 := oracleOrientation(t.A, t.B, s.A)
	o4 := oracleOrientation(t.A, t.B, s.B)

	if o1 != o2 && o3 != o4 && o1 != 0 && o2 != 0 && o3 != 0 && o4 != 0 {
		d := s.B.Sub(s.A)
		e := t.B.Sub(t.A)
		den := d.Cross(e)
		u := t.A.Sub(s.A).Cross(e) / den
		return ProperCrossing, s.A.Add(d.Scale(u))
	}

	collinear := o1 == 0 && o2 == 0 && o3 == 0 && o4 == 0
	if collinear {
		pts := []Point{}
		for _, p := range []Point{t.A, t.B} {
			if oracleOnSegmentCollinear(p, s) {
				pts = append(pts, p)
			}
		}
		for _, p := range []Point{s.A, s.B} {
			if oracleOnSegmentCollinear(p, t) {
				pts = append(pts, p)
			}
		}
		if len(pts) == 0 {
			return NoIntersection, Point{}
		}
		first := pts[0]
		for _, p := range pts[1:] {
			if p.Dist(first) > Eps {
				return CollinearOverlap, first
			}
		}
		return EndpointTouch, first
	}

	if o1 == 0 && oracleOnSegmentCollinear(t.A, s) {
		return EndpointTouch, t.A
	}
	if o2 == 0 && oracleOnSegmentCollinear(t.B, s) {
		return EndpointTouch, t.B
	}
	if o3 == 0 && oracleOnSegmentCollinear(s.A, t) {
		return EndpointTouch, s.A
	}
	if o4 == 0 && oracleOnSegmentCollinear(s.B, t) {
		return EndpointTouch, s.B
	}
	return NoIntersection, Point{}
}

func oracleOffOriginCount(s, t Segment, origin Point, tol float64) int {
	k, p := oracleIntersect(s, t)
	switch k {
	case ProperCrossing, EndpointTouch:
		if p.Dist(origin) > tol {
			return 1
		}
	case CollinearOverlap:
		if oracleFurthestFromOrigin(s, t, origin) > tol {
			return 1
		}
	}
	return 0
}

func oracleMaxCornerDist(lo, hi, origin Point) float64 {
	d := origin.Dist(lo)
	if v := origin.Dist(hi); v > d {
		d = v
	}
	if v := origin.Dist(Point{lo.X, hi.Y}); v > d {
		d = v
	}
	if v := origin.Dist(Point{hi.X, lo.Y}); v > d {
		d = v
	}
	return d
}

func oracleFurthestFromOrigin(s, t Segment, origin Point) float64 {
	d := s.A.Dist(origin)
	if v := s.B.Dist(origin); v > d {
		d = v
	}
	if v := t.A.Dist(origin); v > d {
		d = v
	}
	if v := t.B.Dist(origin); v > d {
		d = v
	}
	return d
}

func oracleBoxOf(s Segment) BoundingBox {
	return BoundingBox{
		Min: Point{math.Min(s.A.X, s.B.X), math.Min(s.A.Y, s.B.Y)},
		Max: Point{math.Max(s.A.X, s.B.X), math.Max(s.A.Y, s.B.Y)},
	}
}

func oracleUnion(b, o BoundingBox) BoundingBox {
	return BoundingBox{
		Min: Point{math.Min(b.Min.X, o.Min.X), math.Min(b.Min.Y, o.Min.Y)},
		Max: Point{math.Max(b.Max.X, o.Max.X), math.Max(b.Max.Y, o.Max.Y)},
	}
}

// oracleSharedOriginIntersections is the unboxed count: every segment
// pair through the per-pair kernel, no box skips. The boxed kernel must
// agree with it on every input with finite coordinates.
func oracleSharedOriginIntersections(a, b Polyline, origin Point, tol float64) int {
	count := 0
	for i := 0; i+1 < len(a); i++ {
		s := Segment{a[i], a[i+1]}
		for j := 0; j+1 < len(b); j++ {
			count += oracleOffOriginCount(s, Segment{b[j], b[j+1]}, origin, tol)
		}
	}
	return count
}

func oracleSharedOriginIntersectionsBoxed(a, b Polyline, aSeg, bSeg []BoundingBox, aBox, bBox BoundingBox, origin Point, tol float64) int {
	if !aBox.Overlaps(bBox) {
		return 0
	}
	lo := Point{math.Max(aBox.Min.X, bBox.Min.X), math.Max(aBox.Min.Y, bBox.Min.Y)}
	hi := Point{math.Min(aBox.Max.X, bBox.Max.X), math.Min(aBox.Max.Y, bBox.Max.Y)}
	collinearOnly := oracleMaxCornerDist(lo, hi, origin) <= tol

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
				if k, _ := oracleIntersect(s, t); k == CollinearOverlap && oracleFurthestFromOrigin(s, t, origin) > tol {
					count++
				}
				continue
			}
			count += oracleOffOriginCount(s, t, origin, tol)
		}
	}
	return count
}

// oracleBoxes returns pl's Eps-expanded segment boxes and their union,
// built with math.Min/math.Max.
func oracleBoxes(pl Polyline) ([]BoundingBox, BoundingBox) {
	var seg []BoundingBox
	var box BoundingBox
	for i := 0; i+1 < len(pl); i++ {
		b := oracleBoxOf(Segment{pl[i], pl[i+1]}).Expand(Eps)
		if i == 0 {
			box = b
		} else {
			box = oracleUnion(box, b)
		}
		seg = append(seg, b)
	}
	return seg, box
}

// boxesOf returns pl's segment boxes (SegmentBoxes) and their union, as
// the trajectory map's intersection cache builds them.
func boxesOf(pl Polyline) ([]BoundingBox, BoundingBox) {
	seg := pl.SegmentBoxes(nil)
	var box BoundingBox
	for i, b := range seg {
		if i == 0 {
			box = b
		} else {
			box = box.Union(b)
		}
	}
	return seg, box
}

func boxedCount(a, b Polyline, origin Point, tol float64) int {
	aSeg, aBox := boxesOf(a)
	bSeg, bBox := boxesOf(b)
	return SharedOriginIntersectionsBoxed(a, b, aSeg, bSeg, aBox, bBox, origin, tol)
}

// sameValue compares two floats as values: NaN matches NaN, and the two
// zeros match each other — the one freedom minf/maxf take.
func sameValue(a, b float64) bool { return a == b || (a != a && b != b) }

func sameBox(a, b BoundingBox) bool {
	return sameValue(a.Min.X, b.Min.X) && sameValue(a.Min.Y, b.Min.Y) &&
		sameValue(a.Max.X, b.Max.X) && sameValue(a.Max.Y, b.Max.Y)
}

func samePoint(a, b Point) bool { return sameBits(a.X, b.X) && sameBits(a.Y, b.Y) }

// checkPredicates compares every per-pair predicate on segments s and t
// against its oracle: all 24 ordered orientations of the four points, both
// argument orders of Intersect (kind and point bits), the collinear
// box test, the segment boxes, and the three distance-versus-tol
// decisions.
func checkPredicates(t *testing.T, s, u Segment, origin Point, tol float64) {
	t.Helper()
	pts := [4]Point{s.A, s.B, u.A, u.B}
	for i := range pts {
		for j := range pts {
			for k := range pts {
				if i == j || j == k || i == k {
					continue
				}
				if got, want := Orientation(pts[i], pts[j], pts[k]), oracleOrientation(pts[i], pts[j], pts[k]); got != want {
					t.Fatalf("Orientation(%v, %v, %v) = %d, oracle %d", pts[i], pts[j], pts[k], got, want)
				}
			}
		}
	}
	for _, pair := range [2][2]Segment{{s, u}, {u, s}} {
		gk, gp := Intersect(pair[0], pair[1])
		wk, wp := oracleIntersect(pair[0], pair[1])
		if gk != wk || !samePoint(gp, wp) {
			t.Fatalf("Intersect(%v, %v) = %v %v, oracle %v %v", pair[0], pair[1], gk, gp, wk, wp)
		}
		if got, want := offOriginCount(pair[0], pair[1], origin, tol), oracleOffOriginCount(pair[0], pair[1], origin, tol); got != want {
			t.Fatalf("offOriginCount(%v, %v, %v, %v) = %d, oracle %d", pair[0], pair[1], origin, tol, got, want)
		}
		if got, want := overlapLeavesOrigin(pair[0], pair[1], origin, tol), oracleFurthestFromOrigin(pair[0], pair[1], origin) > tol; got != want {
			t.Fatalf("overlapLeavesOrigin(%v, %v, %v, %v) = %v, oracle %v", pair[0], pair[1], origin, tol, got, want)
		}
		for _, p := range pts {
			if got, want := onSegmentCollinear(p, pair[0]), oracleOnSegmentCollinear(p, pair[0]); got != want {
				t.Fatalf("onSegmentCollinear(%v, %v) = %v, oracle %v", p, pair[0], got, want)
			}
		}
	}
	for _, c := range [2][2]Point{{s.A, s.B}, {u.A, u.B}} {
		if got, want := cornersWithin(c[0], c[1], origin, tol), oracleMaxCornerDist(c[0], c[1], origin) <= tol; got != want {
			t.Fatalf("cornersWithin(%v, %v, %v, %v) = %v, oracle %v", c[0], c[1], origin, tol, got, want)
		}
	}
	bs, bu := BoxOf(s), BoxOf(u)
	if !sameBox(bs, oracleBoxOf(s)) || !sameBox(bu, oracleBoxOf(u)) {
		t.Fatalf("BoxOf(%v) = %v, oracle %v", s, bs, oracleBoxOf(s))
	}
	if got, want := bs.Union(bu), oracleUnion(oracleBoxOf(s), oracleBoxOf(u)); !sameBox(got, want) {
		t.Fatalf("Union(%v, %v) = %v, oracle %v", bs, bu, got, want)
	}
}

// specials are the float64 values the bound filters must route to the
// exact formula or decide correctly at the edge: zeros of both signs,
// infinities, NaN, subnormals, the normal range's ends.
var specials = []float64{
	0, math.Copysign(0, -1), 1, -1, Eps, -Eps,
	math.Inf(1), math.Inf(-1), math.NaN(),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 3 * math.SmallestNonzeroFloat64,
	0x1p-1022, -0x1p-1022, math.MaxFloat64, -math.MaxFloat64, 0x1p511, 0x1p-511,
}

// randCoord draws one coordinate: raw float64 bits, a special value, a
// coarse lattice value (exact collinearity, shared endpoints), or a real
// value over twelve decades.
func randCoord(r *rand.Rand) float64 {
	switch r.Intn(8) {
	case 0:
		return math.Float64frombits(r.Uint64())
	case 1:
		return specials[r.Intn(len(specials))]
	case 2, 3, 4:
		return float64(r.Intn(9)-4) / 2
	default:
		return r.NormFloat64() * math.Pow(10, float64(r.Intn(13)-6))
	}
}

// randPoint draws a point whose coordinates all come from one randCoord
// class most of the time, so lattice points stay on the lattice.
func randPoint(r *rand.Rand) Point {
	if r.Intn(4) == 0 {
		return Point{randCoord(r), randCoord(r)}
	}
	switch r.Intn(3) {
	case 0:
		return Point{float64(r.Intn(9)-4) / 2, float64(r.Intn(9)-4) / 2}
	case 1:
		k := math.Pow(10, float64(r.Intn(13)-6))
		return Point{r.NormFloat64() * k, r.NormFloat64() * k}
	default:
		return Point{randCoord(r), randCoord(r)}
	}
}

// nearLine returns a point on the line through a and b, at parameter t,
// pushed off it by 1e-13 to 1e-11 along the normal: inside and around the
// band where Orientation's tolerance decides.
func nearLine(r *rand.Rand, a, b Point) Point {
	d := b.Sub(a)
	n := Point{-d.Y, d.X}
	if l := n.Norm(); l > 0 {
		n = n.Scale(1 / l)
	}
	off := math.Pow(10, -13+2*r.Float64())
	if r.Intn(2) == 0 {
		off = -off
	}
	t := float64(r.Intn(9)-2) / 4
	return a.Add(d.Scale(t)).Add(n.Scale(off))
}

// randSegmentPair draws segment pairs of every shape the predicates
// distinguish: independent random segments, shared endpoints, exactly
// collinear lattice pairs, and near-collinear pairs.
func randSegmentPair(r *rand.Rand) (Segment, Segment) {
	s := Segment{randPoint(r), randPoint(r)}
	switch r.Intn(5) {
	case 0:
		return s, Segment{randPoint(r), randPoint(r)}
	case 1: // shared endpoint
		return s, Segment{s.B, randPoint(r)}
	case 2: // collinear on the lattice: a, b on one line through s
		d := s.B.Sub(s.A)
		return s, Segment{s.A.Add(d.Scale(float64(r.Intn(7) - 2))), s.A.Add(d.Scale(float64(r.Intn(7)-2) / 2))}
	default: // near-collinear
		return s, Segment{nearLine(r, s.A, s.B), nearLine(r, s.A, s.B)}
	}
}

func randTol(r *rand.Rand) float64 {
	switch r.Intn(4) {
	case 0:
		return Eps
	case 1:
		return randCoord(r)
	default:
		return math.Pow(10, float64(r.Intn(13)-9))
	}
}

func TestPredicatesMatchOracle(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	n := 200000
	if testing.Short() {
		n = 20000
	}
	for i := 0; i < n; i++ {
		s, u := randSegmentPair(r)
		origin := Point{}
		if r.Intn(4) == 0 {
			origin = randPoint(r)
		}
		checkPredicates(t, s, u, origin, randTol(r))
	}
}

// TestOrientationFilterBand drives Orientation across the filter's
// whole undecided band: for cross products from well inside the lower
// bound to well beyond the upper one, at operand scales from tiny to
// huge, every sign must match the exact formula.
func TestOrientationFilterBand(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 200000; i++ {
		a := Point{r.NormFloat64(), r.NormFloat64()}.Scale(math.Pow(10, float64(r.Intn(9)-4)))
		d := Point{r.NormFloat64(), r.NormFloat64()}.Scale(math.Pow(10, float64(r.Intn(17)-8)))
		b := a.Add(d)
		// c sits off the line a→b by a cross product of about
		// Eps·|d|·|e|·k, k spanning the band on both sides.
		tl := r.NormFloat64() * math.Pow(10, float64(r.Intn(9)-4))
		e := d.Scale(tl)
		nrm := Point{-d.Y, d.X}.Scale(1 / d.Norm())
		k := math.Pow(2, 6*r.Float64()-3) * float64(1-2*r.Intn(2))
		scale := math.Max(d.Norm()*e.Norm(), 1)
		c := a.Add(e).Add(nrm.Scale(k * Eps * scale / d.Norm()))
		if got, want := Orientation(a, b, c), oracleOrientation(a, b, c); got != want {
			t.Fatalf("Orientation(%v, %v, %v) = %d, oracle %d", a, b, c, got, want)
		}
	}
}

// randFan draws polylines shaped like a trajectory map's coordinate-plane
// projections: each runs from its negative deviations through the shared
// origin to its positive ones. Some lie on a common lattice ray (exact
// collinear overlaps and touches along it), some reuse another's vertices,
// some bend near the origin.
func randFan(r *rand.Rand) []Polyline {
	n := 2 + r.Intn(5)
	rays := []Point{{1, 0}, {0, 1}, {1, 1}, {2, -1}, {-1, 3}}
	fan := make([]Polyline, n)
	for i := range fan {
		per := 1 + r.Intn(4)
		var pl Polyline
		switch r.Intn(4) {
		case 0: // straight along a lattice ray through the origin
			ray := rays[r.Intn(len(rays))]
			for j := per; j >= 1; j-- {
				pl = append(pl, ray.Scale(-float64(j)/2))
			}
			pl = append(pl, Point{})
			for j := 1; j <= per; j++ {
				pl = append(pl, ray.Scale(float64(j+r.Intn(2))/2))
			}
		case 1: // shares vertices with an earlier polyline
			if i > 0 && len(fan[i-1]) > 2 {
				pl = append(pl, fan[i-1][0], Point{}, fan[i-1][len(fan[i-1])-1])
				break
			}
			fallthrough
		default: // curved, real or near-origin coordinates
			k := math.Pow(10, float64(r.Intn(9)-6))
			dir := Point{r.NormFloat64(), r.NormFloat64()}
			bend := Point{r.NormFloat64(), r.NormFloat64()}
			for j := -per; j <= per; j++ {
				if j == 0 {
					pl = append(pl, Point{})
					continue
				}
				x := float64(j)
				pl = append(pl, dir.Scale(k*x).Add(bend.Scale(k*x*x/4)))
			}
		}
		fan[i] = pl
	}
	return fan
}

// TestSharedOriginBoxedMatchesOracle pins the boxed counting kernel to the
// unboxed oracle, and to the pre-filter boxed oracle, on every pair of
// random trajectory-shaped fans; the production boxes must equal the
// math.Min/Max boxes as values.
func TestSharedOriginBoxedMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for it := 0; it < 3000; it++ {
		fan := randFan(r)
		var maxNorm float64
		for _, pl := range fan {
			for _, p := range pl {
				maxNorm = math.Max(maxNorm, p.Norm())
			}
		}
		tol := 1e-6 * maxNorm
		if r.Intn(4) == 0 {
			tol = math.Pow(10, float64(r.Intn(9)-6))
		}
		for i := range fan {
			aSeg, aBox := boxesOf(fan[i])
			oSeg, oBox := oracleBoxes(fan[i])
			if !sameBox(aBox, oBox) {
				t.Fatalf("polyline box %v, oracle %v", aBox, oBox)
			}
			for k := range aSeg {
				if !sameBox(aSeg[k], oSeg[k]) {
					t.Fatalf("segment box %v, oracle %v", aSeg[k], oSeg[k])
				}
			}
			for j := range fan {
				bSeg, bBox := boxesOf(fan[j])
				got := SharedOriginIntersectionsBoxed(fan[i], fan[j], aSeg, bSeg, aBox, bBox, Point{}, tol)
				want := oracleSharedOriginIntersections(fan[i], fan[j], Point{}, tol)
				obSeg, obBox := oracleBoxes(fan[j])
				old := oracleSharedOriginIntersectionsBoxed(fan[i], fan[j], oSeg, obSeg, oBox, obBox, Point{}, tol)
				if got != want || old != want {
					t.Fatalf("fan %d: boxed count %d, pre-filter boxed %d, unboxed oracle %d for\n%v\n%v (tol %g)", it, got, old, want, fan[i], fan[j], tol)
				}
			}
		}
	}
}

// TestIntersectAllocationFree guards the stack-held contact list: every
// branch of Intersect, the collinear ones included, runs without a heap
// allocation.
func TestIntersectAllocationFree(t *testing.T) {
	cases := []struct {
		name string
		s, u Segment
		want IntersectKind
	}{
		{"collinear overlap", Segment{Point{0, 0}, Point{2, 0}}, Segment{Point{1, 0}, Point{3, 0}}, CollinearOverlap},
		{"collinear disjoint", Segment{Point{0, 0}, Point{1, 0}}, Segment{Point{2, 0}, Point{3, 0}}, NoIntersection},
		{"collinear touch", Segment{Point{0, 0}, Point{1, 0}}, Segment{Point{1, 0}, Point{2, 0}}, EndpointTouch},
		{"T-junction", Segment{Point{0, 0}, Point{2, 0}}, Segment{Point{1, 0}, Point{1, 1}}, EndpointTouch},
		{"proper crossing", Segment{Point{0, 0}, Point{2, 2}}, Segment{Point{0, 2}, Point{2, 0}}, ProperCrossing},
	}
	for _, c := range cases {
		if k, _ := Intersect(c.s, c.u); k != c.want {
			t.Fatalf("%s: Intersect = %v, want %v", c.name, k, c.want)
		}
		if avg := testing.AllocsPerRun(100, func() { Intersect(c.s, c.u) }); avg != 0 {
			t.Fatalf("%s: Intersect allocates %.2f objects/run, want 0", c.name, avg)
		}
	}
}

// decodeSegmentPair turns fuzz input into two segments, an origin and a
// tolerance. The first byte selects the coordinate encoding: odd reads
// raw little-endian float64 bits (NaN, ±Inf, ±0 and subnormals
// included), even reads one signed byte per coordinate on a 1/4 lattice,
// which reaches exact collinearity and shared endpoints quickly. Missing
// coordinates are zero; the tolerance is the absolute value of the
// eleventh coordinate, or Eps when absent.
func decodeSegmentPair(data []byte) (Segment, Segment, Point, float64) {
	var c [11]float64
	n := 0
	if len(data) > 0 {
		raw := data[0]%2 == 1
		data = data[1:]
		for ; n < len(c) && len(data) > 0; n++ {
			if raw {
				if len(data) < 8 {
					break
				}
				c[n] = math.Float64frombits(binary.LittleEndian.Uint64(data))
				data = data[8:]
			} else {
				c[n] = float64(int8(data[0])) / 4
				data = data[1:]
			}
		}
	}
	tol := Eps
	if n == len(c) {
		tol = math.Abs(c[10])
	}
	return Segment{Point{c[0], c[1]}, Point{c[2], c[3]}},
		Segment{Point{c[4], c[5]}, Point{c[6], c[7]}},
		Point{c[8], c[9]}, tol
}

// FuzzIntersectMatchesOracle checks every per-pair predicate and the
// boxed count of the two segments against the pre-filter oracles (kinds,
// point bits, counts), and that nothing panics. The boxed count must also
// equal the unboxed one whenever every coordinate is finite; a NaN
// coordinate gives its segment a NaN box, which the boxed kernel skips
// while the unboxed count may still find an Eps-tolerant touch.
func FuzzIntersectMatchesOracle(f *testing.F) {
	f.Add([]byte{0, 0, 0, 8, 0, 4, 0, 12, 0})          // collinear overlap
	f.Add([]byte{0, 0, 0, 8, 0, 4, 0, 4, 4})           // T-junction
	f.Add([]byte{0, 252, 252, 4, 4, 252, 4, 4, 252})   // proper crossing through the origin
	f.Add([]byte{2, 0, 0, 4, 0, 4, 0, 8, 0, 0, 0, 16}) // collinear touch, wide tol
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 16; i++ {
		s, u := randSegmentPair(r)
		data := []byte{1}
		for _, v := range []float64{s.A.X, s.A.Y, s.B.X, s.B.Y, u.A.X, u.A.Y, u.B.X, u.B.Y, 0, 0, randTol(r)} {
			data = binary.LittleEndian.AppendUint64(data, math.Float64bits(v))
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, u, origin, tol := decodeSegmentPair(data)
		checkPredicates(t, s, u, origin, tol)
		a, b := Polyline{s.A, s.B}, Polyline{u.A, u.B}
		aSeg, aBox := oracleBoxes(a)
		bSeg, bBox := oracleBoxes(b)
		got := boxedCount(a, b, origin, tol)
		if want := oracleSharedOriginIntersectionsBoxed(a, b, aSeg, bSeg, aBox, bBox, origin, tol); got != want {
			t.Fatalf("boxed count %d, pre-filter boxed oracle %d for %v %v (origin %v, tol %g)", got, want, a, b, origin, tol)
		}
		if a.Validate() == nil && b.Validate() == nil {
			if want := oracleSharedOriginIntersections(a, b, origin, tol); got != want {
				t.Fatalf("boxed count %d, unboxed oracle %d for %v %v (origin %v, tol %g)", got, want, a, b, origin, tol)
			}
		}
	})
}
