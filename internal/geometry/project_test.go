package geometry

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// oracleProject is the two-pass selection PolylineN.Project replaced,
// kept as the reference: the nearest segment by ProjectN (first segment
// seeds, strict < replaces), then a second ProjectN scan for the
// strictly-closest interior foot.
func oracleProject(pl PolylineN, p VecN) (PolylineProjection, bool) {
	if len(pl) < 2 {
		return PolylineProjection{}, false
	}
	var out PolylineProjection
	best := ProjectN(p, pl[0], pl[1])
	for i := 1; i+1 < len(pl); i++ {
		if pr := ProjectN(p, pl[i], pl[i+1]); pr.Dist < best.Dist {
			out.Nearest.Seg, best = i, pr
		}
	}
	out.Nearest.T, out.Nearest.Dist = best.T, best.Dist
	interiorDist := math.Inf(1)
	for i := 0; i+1 < len(pl); i++ {
		pr := ProjectN(p, pl[i], pl[i+1])
		if pr.Interior && pr.Dist < interiorDist {
			interiorDist = pr.Dist
			out.Interior = SegmentFoot{Seg: i, T: pr.T, Dist: pr.Dist}
			out.HasInterior = true
		}
	}
	return out, true
}

// sameBits compares float64 bit patterns, except that any NaN matches
// any NaN: which operand's payload an operation on two NaNs returns is
// up to the hardware and the compiler's operand order (coverage
// instrumentation alone changes it), so payloads carry no meaning.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

func sameFoot(a, b SegmentFoot) bool {
	return a.Seg == b.Seg && sameBits(a.T, b.T) && sameBits(a.Dist, b.Dist)
}

// checkProject compares Project against the oracle bit for bit.
func checkProject(t *testing.T, pl PolylineN, p VecN) {
	t.Helper()
	got, gotOK := pl.Project(p)
	want, wantOK := oracleProject(pl, p)
	if gotOK != wantOK || got.HasInterior != want.HasInterior ||
		!sameFoot(got.Nearest, want.Nearest) ||
		(want.HasInterior && !sameFoot(got.Interior, want.Interior)) {
		t.Fatalf("Project(%v, %v):\n got  %+v ok=%v\n want %+v ok=%v", pl, p, got, gotOK, want, wantOK)
	}
	wantDist := math.Inf(1)
	if wantOK {
		wantDist = want.Nearest.Dist
	}
	if d := pl.DistToN(p); !sameBits(d, wantDist) {
		t.Fatalf("DistToN(%v, %v) = %v, want %v", pl, p, d, wantDist)
	}
}

// projectCase is one polyline/point pair of the oracle comparison.
type projectCase struct {
	pl PolylineN
	p  VecN
}

// projectCases covers k = 1..6 with random real coordinates, coarse
// lattice coordinates (exact distance ties, feet landing on vertices,
// repeated points and so degenerate segments), and empty and one-point
// polylines.
func projectCases(r *rand.Rand) []projectCase {
	var cases []projectCase
	for k := 1; k <= 6; k++ {
		cases = append(cases,
			projectCase{nil, make(VecN, k)},
			projectCase{PolylineN{make(VecN, k)}, make(VecN, k)},
		)
		for n := 0; n < 60; n++ {
			lattice := n%2 == 1
			coord := func() float64 {
				if lattice {
					return float64(r.Intn(5) - 2)
				}
				return r.NormFloat64() * math.Pow(10, float64(r.Intn(7)-3))
			}
			vec := func() VecN {
				v := make(VecN, k)
				for i := range v {
					v[i] = coord()
				}
				return v
			}
			pl := make(PolylineN, 2+r.Intn(10))
			for i := range pl {
				if i > 0 && r.Intn(4) == 0 {
					pl[i] = append(VecN(nil), pl[i-1]...) // degenerate segment
					continue
				}
				pl[i] = vec()
			}
			p := vec()
			if r.Intn(5) == 0 {
				p = append(VecN(nil), pl[r.Intn(len(pl))]...) // on a vertex
			}
			cases = append(cases, projectCase{pl, p})
		}
	}
	// Hand-picked ties: a point equidistant from two parallel segments,
	// and from both arms of a symmetric V (the first segment must win).
	cases = append(cases,
		projectCase{PolylineN{{0, 0}, {1, 0}, {1, 2}, {0, 2}}, VecN{0.5, 1}},
		projectCase{PolylineN{{-1, 1}, {0, 0}, {1, 1}}, VecN{0, 1}},
		projectCase{PolylineN{{0, 0}, {0, 0}, {0, 0}}, VecN{3, 4}},
	)
	return cases
}

func TestProjectMatchesProjectN(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, c := range projectCases(r) {
		checkProject(t, c.pl, c.p)
	}
}

func TestProjectAllocationFree(t *testing.T) {
	pl := PolylineN{{0, 0, 0}, {3, 0, 0}, {3, 4, 0}, {3, 4, 0}, {0, 4, 1}}
	p := VecN{1.5, 1, 0.5}
	if avg := testing.AllocsPerRun(100, func() { pl.Project(p) }); avg != 0 {
		t.Fatalf("Project allocates %.2f objects/run, want 0", avg)
	}
}

// encodeProjectCase packs a case into the fuzz input layout decoded by
// decodeProjectCase, using raw float64 coordinates.
func encodeProjectCase(c projectCase) (uint8, []byte) {
	k := len(c.p)
	data := []byte{1} // mode 1: raw float64 coordinates
	for _, v := range append(PolylineN{c.p}, c.pl...) {
		for _, x := range v {
			data = binary.LittleEndian.AppendUint64(data, math.Float64bits(x))
		}
	}
	return uint8(k - 1), data
}

// decodeProjectCase turns fuzz input into a point and a polyline in R^k,
// k = 1 + kSel%6. The first byte selects the coordinate encoding: odd
// reads raw little-endian float64 bits (any value, NaN and ±Inf
// included), even reads one signed byte per coordinate on a 1/4 lattice,
// which reaches ties and repeated points quickly. The point comes first,
// then as many whole polyline vertices as the data holds.
func decodeProjectCase(kSel uint8, data []byte) (PolylineN, VecN) {
	k := 1 + int(kSel)%6
	if len(data) == 0 {
		return nil, make(VecN, k)
	}
	raw := data[0]%2 == 1
	data = data[1:]
	var coords []float64
	if raw {
		for ; len(data) >= 8; data = data[8:] {
			coords = append(coords, math.Float64frombits(binary.LittleEndian.Uint64(data)))
		}
	} else {
		for _, b := range data {
			coords = append(coords, float64(int8(b))/4)
		}
	}
	p := make(VecN, k)
	copy(p, coords)
	var pl PolylineN
	for i := k; i+k <= len(coords); i += k {
		pl = append(pl, VecN(coords[i:i+k]))
	}
	return pl, p
}

// FuzzProjectMatchesProjectN checks that Project never panics on
// same-dimension input and matches the ProjectN oracle bit for bit (NaN
// payloads aside, see sameBits).
func FuzzProjectMatchesProjectN(f *testing.F) {
	for _, c := range projectCases(rand.New(rand.NewSource(7))) {
		kSel, data := encodeProjectCase(c)
		f.Add(kSel, data)
	}
	f.Add(uint8(1), []byte{0, 0, 0, 4, 0, 4, 4, 8, 0})
	f.Fuzz(func(t *testing.T, kSel uint8, data []byte) {
		pl, p := decodeProjectCase(kSel, data)
		checkProject(t, pl, p)
	})
}
