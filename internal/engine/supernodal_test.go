package engine

import (
	"fmt"
	"testing"

	"repro/internal/circuits"
	"repro/internal/fault"
	"repro/internal/numeric"
)

// This file pins the supernodal numeric-phase wiring: the frequency-
// blocked group refactorization and single-column supernodal refactors
// against the scalar sparse walk and the dense reference, the partial-
// refactorization exact fallback (counter-asserted — no dense work), and
// bit-identity of the group decomposition across worker counts.

// TestSupernodalThreeWayEquivalence is the tentpole acceptance pin: on
// sparse CUTs including the 2-D rc-grid family, the supernodal blocked
// path (frequency groups + supernodal single columns), the scalar sparse
// walk (UseScalarSparse), and the dense path agree to 1e-9 relative over
// single and double faults at worker counts {1, 4, NumCPU}.
func TestSupernodalThreeWayEquivalence(t *testing.T) {
	grid, err := circuits.RCGrid(8)
	if err != nil {
		t.Fatal(err)
	}
	lad, err := circuits.RCLadder(64)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []circuits.CUT{grid, lad} {
		cut := cut
		t.Run(cut.Circuit.Name(), func(t *testing.T) {
			eng, err := New(cut.Circuit, cut.Source, cut.Output)
			if err != nil {
				t.Fatal(err)
			}
			singles := paperSingles(t, cut)
			pairs, err := mustUniverse(t, cut).Pairs([]float64{-0.5, 0.5}, 24)
			if err != nil {
				t.Fatal(err)
			}
			doubles := make([]fault.Set, len(pairs))
			for i, p := range pairs {
				doubles[i] = p
			}
			// 9 frequencies: two full FreqBlock groups plus a remainder, so
			// both the group walk and the single-column supernodal refactor
			// run inside one batch.
			w0 := cut.Omega0
			omegas := []float64{w0 / 8, w0 / 4, w0 / 2, w0 * 0.8, w0, w0 * 1.3, w0 * 2, w0 * 4, w0 * 8}

			eng.SetFactorPath(FactorDense)
			refS, err := eng.BatchResponses(nil, singles, omegas, 1)
			if err != nil {
				t.Fatal(err)
			}
			refD, err := eng.BatchResponsesSets(nil, doubles, omegas, 1)
			if err != nil {
				t.Fatal(err)
			}
			var peak float64
			for _, g := range refS.Golden {
				if g > peak {
					peak = g
				}
			}
			floor := 1e-3 * peak

			eng.SetFactorPath(FactorSparse)
			for _, scalarSparse := range []bool{false, true} {
				eng.UseScalarSparse(scalarSparse)
				for _, workers := range sparseWorkerCounts() {
					tag := fmt.Sprintf("scalarSparse=%v workers=%d", scalarSparse, workers)
					gotS, err := eng.BatchResponses(nil, singles, omegas, workers)
					if err != nil {
						t.Fatal(err)
					}
					for j := range omegas {
						if re := relErrFloor(gotS.Golden[j], refS.Golden[j], floor); re > 1e-9 {
							t.Fatalf("%s golden ω=%g: %.15g vs dense %.15g (rel %.3g)",
								tag, omegas[j], gotS.Golden[j], refS.Golden[j], re)
						}
					}
					for i := range singles {
						for j := range omegas {
							if re := relErrFloor(gotS.Mags[i][j], refS.Mags[i][j], floor); re > 1e-9 {
								t.Fatalf("%s fault %s ω=%g: %.15g vs dense %.15g (rel %.3g)",
									tag, singles[i].ID(), omegas[j], gotS.Mags[i][j], refS.Mags[i][j], re)
							}
						}
					}
					gotD, err := eng.BatchResponsesSets(nil, doubles, omegas, workers)
					if err != nil {
						t.Fatal(err)
					}
					for i := range doubles {
						for j := range omegas {
							if re := relErrFloor(gotD.Mags[i][j], refD.Mags[i][j], floor); re > 1e-9 {
								t.Fatalf("%s set %s ω=%g: %.15g vs dense %.15g (rel %.3g)",
									tag, doubles[i].ID(), omegas[j], gotD.Mags[i][j], refD.Mags[i][j], re)
							}
						}
					}
				}
			}
			eng.UseScalarSparse(false)

			// The supernodal paths did the golden work: every sparse golden
			// refactor above outside scalar-sparse mode is counted.
			s := eng.Stats()
			if s.SupernodalRefactors == 0 {
				t.Error("no supernodal refactors counted on a sparse CUT batch")
			}
			if s.SupernodalRefactors > s.SparseFactors {
				t.Errorf("supernodal %d > sparse %d", s.SupernodalRefactors, s.SparseFactors)
			}
		})
	}
}

func mustUniverse(t *testing.T, cut circuits.CUT) *fault.Universe {
	t.Helper()
	u, err := fault.PaperUniverse(cut.Passives)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// TestSparseWorkerCountBitIdentical pins the group decomposition: the
// frequency-group boundaries depend only on the omega list, never on the
// worker count, so sparse batch results must be bit-identical — not just
// 1e-9-close — at every worker count, including group/remainder splits.
func TestSparseWorkerCountBitIdentical(t *testing.T) {
	grid, err := circuits.RCGrid(8)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(grid.Circuit, grid.Source, grid.Output)
	if err != nil {
		t.Fatal(err)
	}
	eng.SetFactorPath(FactorSparse)
	singles := paperSingles(t, grid)
	w0 := grid.Omega0
	// 10 frequencies: two full groups + two remainder columns.
	omegas := make([]float64, 10)
	for i := range omegas {
		omegas[i] = w0 * (0.2 + 0.35*float64(i))
	}
	ref, err := eng.BatchResponses(nil, singles, omegas, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 4, 8} {
		got, err := eng.BatchResponses(nil, singles, omegas, workers)
		if err != nil {
			t.Fatal(err)
		}
		for j := range omegas {
			if got.Golden[j] != ref.Golden[j] {
				t.Fatalf("workers=%d golden ω=%g: %.17g != %.17g", workers, omegas[j], got.Golden[j], ref.Golden[j])
			}
		}
		for i := range singles {
			for j := range omegas {
				if got.Mags[i][j] != ref.Mags[i][j] {
					t.Fatalf("workers=%d fault %s ω=%g: %.17g != %.17g",
						workers, singles[i].ID(), omegas[j], got.Mags[i][j], ref.Mags[i][j])
				}
			}
		}
	}
}

// TestPartialRefactorServesSMWFallback is the partial-refactorization
// acceptance pin: a fault engineered to break the Sherman–Morrison
// denominator guard (|1+δvᵀz| ≈ 3e-4, far under denGuard) on a sparse
// column must be re-solved by a partial refactorization from the
// column's golden factors — counter-asserted: no dense factorization of
// any kind runs — and still match the dense reference to 1e-9.
func TestPartialRefactorServesSMWFallback(t *testing.T) {
	lad, err := circuits.RCLadder(96)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(lad.Circuit, lad.Source, lad.Output)
	if err != nil {
		t.Fatal(err)
	}
	eng.SetFactorPath(FactorSparse)
	tm := eng.tmpl

	// At ω=0 the ladder is purely resistive, so vᵀz of a series-resistor
	// slot is real and the denominator den(δ) = 1 + δ·vᵀz crosses zero at
	// a real, positive-value deviation (the resistor drifting open).
	// Compute δ* = -1/vᵀz from a dense solve and back off by 3e-4: den
	// lands at 3e-4 — breaking denGuard=1e-3 — while the patched matrix
	// stays far above the sparse static-pivot guard.
	const comp = "R48"
	si, ok := tm.byName[comp]
	if !ok {
		t.Fatalf("no slot for %s", comp)
	}
	sl := &tm.slots[si]
	m := numeric.NewMatrix(tm.n, tm.n)
	tm.stampGolden(m, 0)
	lu, err := numeric.Factor(m)
	if err != nil {
		t.Fatal(err)
	}
	rhs := make([]complex128, tm.n)
	for _, ue := range sl.u {
		rhs[ue.idx] = ue.w
	}
	z := make([]complex128, tm.n)
	if err := lu.SolveInto(z, rhs); err != nil {
		t.Fatal(err)
	}
	var vtz complex128
	for _, ve := range sl.v {
		vtz += ve.w * z[ve.idx]
	}
	delta := (-1 / vtz) * (1 - 3e-4)
	cstar := real(sl.coeff(sl.value, 0) + delta)
	if cstar <= 0 {
		t.Fatalf("engineered conductance %g not realizable", cstar)
	}
	dev := (1/cstar)/sl.value - 1
	f := fault.Fault{Component: comp, Deviation: dev}

	before := eng.Stats()
	got, err := eng.BatchResponses(nil, []fault.Fault{f}, []float64{0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := eng.Stats()
	if d := s.ExactFallbacks - before.ExactFallbacks; d < 1 {
		t.Fatalf("engineered fault took no exact fallback (delta %d) — den guard did not trip", d)
	}
	if dp, df := s.PartialRefactors-before.PartialRefactors, s.ExactFallbacks-before.ExactFallbacks; dp != df {
		t.Errorf("partial refactors %d != exact fallbacks %d: some fallback left the sparse path", dp, df)
	}
	if d := s.DenseFactors - before.DenseFactors; d != 0 {
		t.Errorf("%d dense factorizations ran; partial refactorization must keep the fallback sparse", d)
	}
	if d := s.DenseFallbackExact - before.DenseFallbackExact; d != 0 {
		t.Errorf("dense_fallback_exact advanced by %d, want 0", d)
	}
	cols := s.PartialRefactorColumns - before.PartialRefactorColumns
	if cols < 1 || cols > int64(tm.n) {
		t.Errorf("partial refactor re-eliminated %d columns, want within [1, %d]", cols, tm.n)
	}

	// And the answer is still right.
	eng.SetFactorPath(FactorDense)
	ref, err := eng.BatchResponses(nil, []fault.Fault{f}, []float64{0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if re := relErrFloor(got.Mags[0][0], ref.Mags[0][0], 1e-3*ref.Golden[0]); re > 1e-9 {
		t.Errorf("partial-refactor answer %.15g vs dense %.15g (rel %.3g)", got.Mags[0][0], ref.Mags[0][0], re)
	}
}

// TestSupernodalGroupBatchAllocationFree extends the sparse steady-state
// allocation pin to the frequency-group path: with two full FreqBlock
// groups per batch, repeated batches allocate nothing.
func TestSupernodalGroupBatchAllocationFree(t *testing.T) {
	lad, err := circuits.RCLadder(80)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(lad.Circuit, lad.Source, lad.Output)
	if err != nil {
		t.Fatal(err)
	}
	eng.SetFactorPath(FactorSparse)
	singles := paperSingles(t, lad)[:25]
	omegas := make([]float64, 2*numeric.FreqBlock)
	for i := range omegas {
		omegas[i] = 0.004 + 0.004*float64(i)
	}
	var out Batch
	run := func() {
		if err := eng.BatchResponsesInto(nil, singles, omegas, 1, &out); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm-up sizes the group scratch
	i := 0
	avg := testing.AllocsPerRun(30, func() {
		i++
		omegas[0] = 0.004 + float64(i%50)*1e-7
		run()
	})
	if raceEnabled {
		t.Skipf("race instrumentation drops pooled workspaces (%.2f objects/run); count not asserted", avg)
	}
	if avg >= 1 {
		t.Fatalf("group batch allocates %.2f objects/run in steady state, want < 1", avg)
	}
}
