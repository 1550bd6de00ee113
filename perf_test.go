package repro

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/ga"
	"repro/internal/geometry"
	"repro/internal/trajectory"
)

// TestFitnessPathAllocationFree is the steady-state allocation
// regression guard for the GA's hot loop: once a trajectory.Builder is
// warm, rebuilding the map for a fresh test vector and counting its
// intersections must not allocate. A regression here silently multiplies
// back into hundreds of thousands of allocations per GA run (128
// individuals × 15 generations), which is exactly what the
// engine/dictionary/trajectory reuse APIs exist to prevent.
//
// The paper CUT's map at this vector has no collinear segment pairs, so
// a second fixture, khn-lowpass, whose map has many, keeps the collinear
// branch of the intersection predicates under the guard too.
func TestFitnessPathAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are meaningless")
	}
	khn, err := BenchmarkByName("khn-lowpass")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		cut           CUT
		wantCollinear bool
	}{{PaperCUT(), false}, {khn, true}} {
		name := tc.cut.Circuit.Name()
		s, err := NewSession(tc.cut)
		if err != nil {
			t.Fatal(err)
		}
		b := trajectory.NewBuilder(s.Dictionary())
		omegas := []float64{0.5, 2}
		eval := func() {
			m, err := b.Build(nil, omegas)
			if err != nil {
				t.Fatal(err)
			}
			if n := m.Intersections(); n < 0 {
				t.Fatal("negative intersection count")
			}
		}
		// Warm up the builder's scratch, then vary the test vector per
		// run so nothing can hide behind value-keyed caching.
		eval()
		if tc.wantCollinear {
			m, err := trajectory.Build(nil, s.Dictionary(), omegas)
			if err != nil {
				t.Fatal(err)
			}
			if n := collinearSegmentPairs(t, m); n == 0 {
				t.Fatalf("%s: map at %v has no collinear segment pairs; the fixture no longer reaches the collinear branch", name, omegas)
			}
		}
		i := 0
		avg := testing.AllocsPerRun(100, func() {
			i++
			omegas[0] = 0.5 + float64(i%100)*1e-5
			omegas[1] = 2 + float64(i%100)*1e-5
			eval()
		})
		// A strict 0 would flake when the GC empties the engine's
		// workspace pool mid-measurement; anything under one allocation
		// per evaluation still proves the steady state reuses its
		// storage.
		if avg >= 1 {
			t.Fatalf("%s: fitness path allocates %.2f objects/run in steady state, want < 1", name, avg)
		}
	}
}

// collinearSegmentPairs counts the segment pairs of distinct planar
// trajectories whose four endpoint orientations are all zero — the pairs
// geometry.Intersect classifies in its collinear branch.
func collinearSegmentPairs(t *testing.T, m *trajectory.Map) int {
	t.Helper()
	pls := make([]geometry.Polyline, len(m.Trajectories))
	for i, tr := range m.Trajectories {
		pl, err := tr.Planar()
		if err != nil {
			t.Fatal(err)
		}
		pls[i] = pl
	}
	n := 0
	for i := range pls {
		for j := i + 1; j < len(pls); j++ {
			for _, s := range pls[i].Segments() {
				for _, u := range pls[j].Segments() {
					if geometry.Orientation(s.A, s.B, u.A) == 0 && geometry.Orientation(s.A, s.B, u.B) == 0 &&
						geometry.Orientation(u.A, u.B, s.A) == 0 && geometry.Orientation(u.A, u.B, s.B) == 0 {
						n++
					}
				}
			}
		}
	}
	return n
}

// TestOptimizeBatchedMatchesPerIndividualGA: ATPG.Optimize evaluates
// fitness through the generation-batched hook with per-worker builders;
// this pins it bit-for-bit against an independently-assembled
// per-individual GA over the same objective (the paper's 1/(1+I)), for
// the same seed.
func TestOptimizeBatchedMatchesPerIndividualGA(t *testing.T) {
	s, err := NewSession(PaperCUT())
	if err != nil {
		t.Fatal(err)
	}
	cfg := PaperOptimizeConfig(s.CUT().Omega0)
	cfg.GA.PopSize, cfg.GA.Generations = 24, 6
	cfg.Seed = 17
	tv, err := s.Optimize(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}

	lo, hi := math.Log10(cfg.BandLo), math.Log10(cfg.BandHi)
	bounds := make([]ga.Interval, cfg.NumFrequencies)
	for i := range bounds {
		bounds[i] = ga.Interval{Lo: lo, Hi: hi}
	}
	problem := ga.Problem{
		Bounds: bounds,
		Fitness: func(genes []float64) float64 {
			omegas := make([]float64, len(genes))
			for i, g := range genes {
				omegas[i] = math.Pow(10, g)
			}
			m, err := trajectory.Build(nil, s.Dictionary(), omegas)
			if err != nil {
				return 0
			}
			return 1 / (1 + float64(m.Intersections()))
		},
	}
	res, err := ga.Run(nil, problem, cfg.GA, rand.New(rand.NewSource(cfg.Seed)))
	if err != nil {
		t.Fatal(err)
	}
	if tv.Fitness != res.BestFitness || tv.Evaluations != res.Evaluations {
		t.Fatalf("batched (fit %v, %d evals) != per-individual (fit %v, %d evals)",
			tv.Fitness, tv.Evaluations, res.BestFitness, res.Evaluations)
	}
	if !reflect.DeepEqual(tv.History, res.History) {
		t.Fatal("batched and per-individual GA histories differ")
	}
	want := make([]float64, len(res.Best))
	for i, g := range res.Best {
		want[i] = math.Pow(10, g)
	}
	for _, w := range want {
		found := false
		for _, o := range tv.Omegas {
			if o == w {
				found = true
			}
		}
		if !found {
			t.Fatalf("best vectors differ: %v vs (unsorted) %v", tv.Omegas, want)
		}
	}
}

// TestOptimizeWorkerCountInvariance: fixed-seed GA results (best genes,
// fitness, full history) must be identical at every worker count,
// including the inline Workers==1 path.
func TestOptimizeWorkerCountInvariance(t *testing.T) {
	run := func(workers int) *TestVector {
		s, err := NewSession(PaperCUT(), WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		cfg := PaperOptimizeConfig(s.CUT().Omega0)
		cfg.GA.PopSize, cfg.GA.Generations = 32, 6
		cfg.Seed = 23
		tv, err := s.Optimize(nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return tv
	}
	ref := run(1)
	for _, workers := range []int{2, 3, 8} {
		got := run(workers)
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d changed the fixed-seed result:\n got %+v\nwant %+v", workers, got, ref)
		}
	}
}
