package diagnosis

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/geometry"
	"repro/internal/trajectory"
)

// wideMap builds a synthetic single-fault map shaped like a large CUT's:
// n trajectories in R^k, each points long with deviations evenly spread
// over ±40% and the golden origin in the middle, bending away from a
// random direction (p = dev·dir + dev²·bend).
func wideMap(n, points, k int) *trajectory.Map {
	r := rand.New(rand.NewSource(int64(n*1000 + points*10 + k)))
	m := &trajectory.Map{Omegas: make([]float64, k)}
	for i := 0; i < n; i++ {
		dir, bend := make([]float64, k), make([]float64, k)
		for j := range dir {
			dir[j], bend[j] = r.NormFloat64(), r.NormFloat64()
		}
		tr := &trajectory.Trajectory{Component: fmt.Sprintf("R%d", i)}
		for j := 0; j < points; j++ {
			dev := -0.4 + 0.8*float64(j)/float64(points-1)
			p := make(geometry.VecN, k)
			for c := range p {
				p[c] = dev*dir[c] + dev*dev*bend[c]
			}
			tr.Points = append(tr.Points, p)
			tr.Deviations = append(tr.Deviations, dev)
		}
		m.Trajectories = append(m.Trajectories, tr)
	}
	return m
}

// TestDiagnoseAllocsIndependentOfSegments pins the projection pass as
// allocation-free: on 512 trajectories, Diagnose allocates the same
// small number of objects whether each trajectory has 2 or 10 segments.
func TestDiagnoseAllocsIndependentOfSegments(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are meaningless")
	}
	point := geometry.VecN{0.05, -0.02}
	var allocs []float64
	for _, points := range []int{3, 11} {
		dg, err := New(wideMap(512, points, 2))
		if err != nil {
			t.Fatal(err)
		}
		allocs = append(allocs, testing.AllocsPerRun(20, func() {
			if _, err := dg.Diagnose(point); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if allocs[0] != allocs[1] || allocs[0] > 16 {
		t.Fatalf("Diagnose allocates %.0f objects at 3 points/trajectory and %.0f at 11; want equal and <= 16",
			allocs[0], allocs[1])
	}
}

// BenchmarkDiagnoseWideMap times one diagnosis against a 512-trajectory
// k = 2 map with the paper's 9-point deviation grid — the shape of a
// 512-component CUT's hold-out diagnosis.
func BenchmarkDiagnoseWideMap(b *testing.B) {
	dg, err := New(wideMap(512, 9, 2))
	if err != nil {
		b.Fatal(err)
	}
	point := geometry.VecN{0.05, -0.02}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := dg.Diagnose(point); err != nil {
			b.Fatal(err)
		}
	}
}
