package engine

import (
	"math/cmplx"
	"runtime"
	"testing"

	"repro/internal/analysis"
	"repro/internal/circuit"
	"repro/internal/circuits"
	"repro/internal/fault"
)

// oracleResponse is |H(jω)| of a fault set by the analysis
// clone-and-solve path: clone the circuit, scale every faulted part,
// assemble and factor the full dense system.
func oracleResponse(t *testing.T, cut circuits.CUT, set fault.Set, omega float64) float64 {
	t.Helper()
	c := cut.Circuit.Clone()
	for _, p := range set.Parts() {
		if p.IsGolden() {
			continue
		}
		if err := c.ScaleValue(p.Component, p.Scale()); err != nil {
			t.Fatal(err)
		}
	}
	return acMagnitude(t, c, cut.Source, cut.Output, omega)
}

// acMagnitude is |H(jω)| of a circuit by the analysis package.
func acMagnitude(t *testing.T, c *circuit.Circuit, source, output string, omega float64) float64 {
	t.Helper()
	ac, err := analysis.NewAC(c)
	if err != nil {
		t.Fatal(err)
	}
	h, err := ac.Transfer(source, output, omega)
	if err != nil {
		t.Fatal(err)
	}
	return cmplx.Abs(h)
}

// exactCUTs are the scaling CUTs the sparse exact path is pinned on.
func exactCUTs(t *testing.T) []circuits.CUT {
	t.Helper()
	var out []circuits.CUT
	for _, name := range []string{"rc-grid-8", "rc-grid-16", "rc-ladder-64", "opamp-cascade-8"} {
		cut, err := circuits.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, cut)
	}
	return out
}

// TestSparseExactMatchesAnalysis pins the single-point exact path on the
// sparse pattern against the analysis oracle: golden, single and double
// faults on scaling CUTs agree to 1e-9 relative, and every solve is
// counted as a sparse single-point solve (no dense fallback).
func TestSparseExactMatchesAnalysis(t *testing.T) {
	for _, cut := range exactCUTs(t) {
		t.Run(cut.Circuit.Name(), func(t *testing.T) {
			eng, err := New(cut.Circuit, cut.Source, cut.Output)
			if err != nil {
				t.Fatal(err)
			}
			eng.SetFactorPath(FactorSparse)
			if eng.FactorPathName() != "sparse" {
				t.Fatalf("%s: factor path %s, want sparse", cut.Circuit.Name(), eng.FactorPathName())
			}
			comps := cut.Passives
			sets := []fault.Set{
				fault.Fault{},
				fault.Fault{Component: comps[0], Deviation: 0.25},
				fault.Fault{Component: comps[len(comps)/2], Deviation: -0.4},
				fault.Fault{Component: comps[len(comps)-1], Deviation: 0.8},
			}
			for _, pair := range [][2]int{{0, len(comps) - 1}, {1, len(comps) / 2}} {
				m, err := fault.NewMulti(
					fault.Fault{Component: comps[pair[0]], Deviation: -0.3},
					fault.Fault{Component: comps[pair[1]], Deviation: 0.5})
				if err != nil {
					t.Fatal(err)
				}
				sets = append(sets, m)
			}
			omegas := testOmegas(cut.Omega0)
			before := eng.Stats()
			for _, set := range sets {
				for _, w := range omegas {
					got, err := eng.ResponseSet(set, w)
					if err != nil {
						t.Fatal(err)
					}
					want := oracleResponse(t, cut, set, w)
					if re := relErr(got, want); re > 1e-9 {
						t.Fatalf("%s ω=%g: engine %.15g vs analysis %.15g (rel %.3g)", set.ID(), w, got, want, re)
					}
				}
			}
			st := eng.Stats()
			n := int64(len(sets) * len(omegas))
			if d := st.SinglePointSparse - before.SinglePointSparse; d != n {
				t.Errorf("single_point_sparse advanced by %d, want %d", d, n)
			}
			if d := st.SinglePointDense - before.SinglePointDense; d != 0 {
				t.Errorf("single_point_dense advanced by %d, want 0", d)
			}
		})
	}
}

// TestSparseExactPivotGuardFallsBackDense engineers a static-pivot guard
// trip: a near-short (R·1e-9) on a grid resistor makes one conductance
// dwarf every other entry, so the statically ordered pivots fall below
// the guard relative to max|A|. The solve must take the dense
// partial-pivot fallback — counted as such — and still match the oracle.
func TestSparseExactPivotGuardFallsBackDense(t *testing.T) {
	cut, err := circuits.ByName("rc-grid-8")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(cut.Circuit, cut.Source, cut.Output)
	if err != nil {
		t.Fatal(err)
	}
	if eng.FactorPathName() != "sparse" {
		t.Fatalf("factor path %s, want sparse", eng.FactorPathName())
	}
	short := fault.Fault{Component: cut.Passives[0], Deviation: fault.ShortScale - 1}
	w := cut.Omega0
	before := eng.Stats()
	got, err := eng.ResponseSet(short, w)
	if err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if d := st.SinglePointDense - before.SinglePointDense; d != 1 {
		t.Fatalf("single_point_dense advanced by %d, want 1 (guard did not trip)", d)
	}
	if d := st.SinglePointSparse - before.SinglePointSparse; d != 0 {
		t.Fatalf("single_point_sparse advanced by %d, want 0", d)
	}
	want := oracleResponse(t, cut, short, w)
	if re := relErr(got, want); re > 1e-9 {
		t.Fatalf("%s: engine %.15g vs analysis %.15g (rel %.3g)", short.ID(), got, want, re)
	}
}

// allocBytes returns the bytes fn allocates, by the TotalAlloc delta.
func allocBytes(fn func()) uint64 {
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.TotalAlloc - a.TotalAlloc
}

// TestColdAllocationBytes guards the cold one-shot costs by allocated
// bytes, not time: compiling a 4097-unknown grid (template verification
// is O(nnz), not two dense n×n stamps) and the first batch over a
// thousand-node grid's fault universe (workspaces sized by the batch,
// not by every slot being distinct).
func TestColdAllocationBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("large grids are slow under -short")
	}
	const mb = 1 << 20
	big, err := circuits.ByName("rc-grid-64")
	if err != nil {
		t.Fatal(err)
	}
	var newErr error
	got := allocBytes(func() { _, newErr = New(big.Circuit, big.Source, big.Output) })
	t.Logf("engine.New(rc-grid-64): %.1f MB", float64(got)/mb)
	if got > 50*mb {
		t.Errorf("engine.New(rc-grid-64) allocated %.1f MB, want < 50 MB", float64(got)/mb)
	}
	if newErr != nil {
		t.Fatal(newErr)
	}

	cut, err := circuits.ByName("rc-grid-32")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(cut.Circuit, cut.Source, cut.Output)
	if err != nil {
		t.Fatal(err)
	}
	u, err := fault.PaperUniverse(cut.Passives)
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Components) != 24 {
		t.Fatalf("rc-grid-32 universe has %d targets, want 24", len(u.Components))
	}
	var batchErr error
	got = allocBytes(func() { _, batchErr = eng.BatchResponses(nil, u.Faults(), []float64{0.02, 0.05}, 1) })
	t.Logf("first BatchResponses(rc-grid-32): %.1f MB", float64(got)/mb)
	if got > 20*mb {
		t.Errorf("first BatchResponses on rc-grid-32 allocated %.1f MB, want < 20 MB", float64(got)/mb)
	}
	if batchErr != nil {
		t.Fatal(batchErr)
	}
}

// BenchmarkEngineNewCold is a cold engine compile — Assemble and
// validation, template compile and verification, symbolic analysis — of
// the large grid CUTs: the compile every one-shot CLI run pays.
func BenchmarkEngineNewCold(b *testing.B) {
	for _, name := range []string{"rc-grid-32", "rc-grid-64"} {
		cut, err := circuits.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := New(cut.Circuit, cut.Source, cut.Output); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
