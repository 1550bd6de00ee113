package diagnosis

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/fault"
	"repro/internal/geometry"
	"repro/internal/trajectory"
)

// oracleDiagnose is the two-pass Diagnose the single projection pass
// replaced, kept as the reference ranking: ProjectN-based nearest
// segment, a second ProjectN scan for the best interior foot, Candidates
// sorted in place, then the per-Key dedupe.
func oracleDiagnose(m *trajectory.Map, point geometry.VecN) *Result {
	res := &Result{Point: append(geometry.VecN(nil), point...)}
	for _, tr := range m.Trajectories {
		if len(tr.Points) < 2 {
			continue
		}
		seg, proj := 0, geometry.ProjectN(point, tr.Points[0], tr.Points[1])
		for i := 1; i+1 < len(tr.Points); i++ {
			if pr := geometry.ProjectN(point, tr.Points[i], tr.Points[i+1]); pr.Dist < proj.Dist {
				seg, proj = i, pr
			}
		}
		interiorSeg, interiorT, interiorDist := 0, 0.0, math.Inf(1)
		hasInterior := false
		for i := 0; i+1 < len(tr.Points); i++ {
			pr := geometry.ProjectN(point, tr.Points[i], tr.Points[i+1])
			if pr.Interior && pr.Dist < interiorDist {
				interiorSeg, interiorT, interiorDist = i, pr.T, pr.Dist
				hasInterior = true
			}
		}
		cand := Candidate{Component: tr.Component}
		if hasInterior {
			cand.Distance = interiorDist
			cand.Deviation = tr.DeviationAt(interiorSeg, interiorT)
			cand.Perpendicular = true
		} else {
			cand.Distance = proj.Dist
			cand.Deviation = tr.DeviationAt(seg, proj.T)
		}
		if tr.IsMulti() {
			cand.Components = append([]string(nil), tr.Components...)
			cand.Deviations = append(append([]float64(nil), tr.FixedDeviations...), cand.Deviation)
		}
		res.Candidates = append(res.Candidates, cand)
	}
	sort.SliceStable(res.Candidates, func(i, j int) bool {
		a, b := res.Candidates[i], res.Candidates[j]
		if a.Perpendicular != b.Perpendicular && math.Abs(a.Distance-b.Distance) <= 0.01*math.Max(a.Distance, b.Distance) {
			return a.Perpendicular
		}
		return a.Distance < b.Distance
	})
	seen := make(map[string]bool, len(res.Candidates))
	kept := res.Candidates[:0]
	for _, c := range res.Candidates {
		if k := c.Key(); !seen[k] {
			seen[k] = true
			kept = append(kept, c)
		}
	}
	res.Candidates = kept
	return res
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameFloats(a, b []float64) bool { return slices.EqualFunc(a, b, sameBits) }

// checkAgainstOracle diagnoses point and requires the oracle's candidate
// order with bit-equal Distance, Deviation(s) and Perpendicular. It
// reports whether the perpendicular preference reordered the ranking
// (a perpendicular candidate ahead of a strictly closer one).
func checkAgainstOracle(t *testing.T, dg *Diagnoser, point geometry.VecN) (preferred bool) {
	t.Helper()
	got, err := dg.Diagnose(point)
	if err != nil {
		t.Fatal(err)
	}
	want := oracleDiagnose(dg.Map(), point)
	if !sameFloats(got.Point, want.Point) || len(got.Candidates) != len(want.Candidates) ||
		(got.Candidates == nil) != (want.Candidates == nil) {
		t.Fatalf("point %v: got %d candidates (nil=%v), want %d (nil=%v)", point,
			len(got.Candidates), got.Candidates == nil, len(want.Candidates), want.Candidates == nil)
	}
	for i, g := range got.Candidates {
		w := want.Candidates[i]
		if g.Component != w.Component || !slices.Equal(g.Components, w.Components) ||
			!sameBits(g.Distance, w.Distance) || !sameBits(g.Deviation, w.Deviation) ||
			!sameFloats(g.Deviations, w.Deviations) || g.Perpendicular != w.Perpendicular {
			t.Fatalf("point %v, rank %d:\n got  %+v\n want %+v", point, i, g, w)
		}
		if i > 0 {
			prev := got.Candidates[i-1]
			preferred = preferred || (prev.Perpendicular && !g.Perpendicular && g.Distance < prev.Distance)
		}
	}
	return preferred
}

// randomOracleMap builds a k-D map of random polylines: empty, one-point
// and repeated-point trajectories, coarse lattice coordinates (exact
// distance ties) mixed with real ones, trajectories duplicated under a
// new name, and — when multi is set — double-fault families over a
// small component pool, so several families share a Key and exercise
// the dedupe.
func randomOracleMap(r *rand.Rand, k int, multi bool) *trajectory.Map {
	lattice := r.Intn(2) == 0
	vec := func() geometry.VecN {
		v := make(geometry.VecN, k)
		for i := range v {
			if lattice {
				v[i] = float64(r.Intn(7) - 3)
			} else {
				v[i] = r.NormFloat64()
			}
		}
		return v
	}
	pool := []string{"C1", "C2", "R1", "R2"}
	m := &trajectory.Map{Omegas: make([]float64, k)}
	for i, n := 0, 1+r.Intn(16); i < n; i++ {
		tr := &trajectory.Trajectory{Component: fmt.Sprintf("X%d", i)}
		if i > 0 && r.Intn(6) == 0 {
			src := m.Trajectories[r.Intn(i)]
			tr.Points, tr.Deviations = src.Points, src.Deviations
		} else {
			for j, np := 0, r.Intn(9); j < np; j++ {
				p := vec()
				if j > 0 && r.Intn(4) == 0 {
					p = append(geometry.VecN(nil), tr.Points[j-1]...)
				}
				tr.Points = append(tr.Points, p)
				tr.Deviations = append(tr.Deviations, -0.4+0.1*float64(j))
			}
		}
		if multi && r.Intn(4) != 0 {
			a, b := r.Intn(len(pool)), r.Intn(len(pool)-1)
			if b >= a {
				b++
			}
			frozen, swept := pool[a], pool[b]
			fixed := 0.1 * float64(r.Intn(9)-4)
			tr.Component = fmt.Sprintf("%s@%+.0f%%+%s", frozen, 100*fixed, swept)
			tr.Components = []string{frozen, swept}
			if swept < frozen {
				tr.Components = []string{swept, frozen}
			}
			tr.FixedDeviations = []float64{fixed}
		}
		m.Trajectories = append(m.Trajectories, tr)
	}
	return m
}

// oraclePoints returns points to diagnose against m: random ones, every
// vertex, and every vertex nudged by 1–2% of (|coordinate| + 1), where
// the perpendicular preference and near-ties decide the order.
func oraclePoints(r *rand.Rand, m *trajectory.Map, random int) []geometry.VecN {
	k := m.Dim()
	var pts []geometry.VecN
	for i := 0; i < random; i++ {
		p := make(geometry.VecN, k)
		for j := range p {
			p[j] = 3 * r.NormFloat64()
		}
		pts = append(pts, p)
	}
	for _, tr := range m.Trajectories {
		for _, v := range tr.Points {
			pts = append(pts, append(geometry.VecN(nil), v...))
			nudged := append(geometry.VecN(nil), v...)
			scale := 0.01 + 0.01*r.Float64()
			for j := range nudged {
				nudged[j] += scale * (math.Abs(v[j]) + 1) * r.NormFloat64()
			}
			pts = append(pts, nudged)
		}
	}
	return pts
}

func TestDiagnoseMatchesOracleRandomMaps(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	preferred := 0
	for trial := 0; trial < 300; trial++ {
		m := randomOracleMap(r, 1+trial%5, trial%2 == 1)
		dg, err := New(m)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range oraclePoints(r, m, 8) {
			if checkAgainstOracle(t, dg, p) {
				preferred++
			}
		}
	}
	// The comparison must reach the comparator's 1% perpendicular rule,
	// not only plain distance order.
	if preferred == 0 {
		t.Fatal("no diagnosis exercised the perpendicular preference")
	}
}

// TestDiagnoseMatchesOracleCircuitMaps repeats the comparison on real
// maps: the paper CUT's single-fault map at hold-out signatures, and its
// double-fault map (shared Keys across sweep families) at hold-out pair
// signatures.
func TestDiagnoseMatchesOracleCircuitMaps(t *testing.T) {
	d, dg := setup(t, []float64{0.5, 2})
	trials := HoldOutTrials(d.Universe(), DefaultHoldOutDeviations())
	sigs, err := d.Signatures(context.Background(), trials, dg.Map().Omegas)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sigs {
		checkAgainstOracle(t, dg, geometry.VecN(s))
	}
	for _, p := range oraclePoints(rand.New(rand.NewSource(3)), dg.Map(), 32) {
		checkAgainstOracle(t, dg, p)
	}

	pd, u, _, pairDg, _ := doubleFixture(t)
	sets, err := HoldOutPairTrials(u, nil, 200)
	if err != nil {
		t.Fatal(err)
	}
	sets = append(sets, fault.Fault{Component: "R3", Deviation: 0.25})
	psigs, err := pd.SignaturesSets(context.Background(), sets, pairDg.Map().Omegas)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range psigs {
		checkAgainstOracle(t, pairDg, geometry.VecN(s))
	}
}
