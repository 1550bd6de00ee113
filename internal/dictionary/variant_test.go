package dictionary

import (
	"math"
	"math/cmplx"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/analysis"
	"repro/internal/circuit"
	"repro/internal/circuits"
	"repro/internal/fault"
)

// gridDict is a dictionary over a scaling grid CUT's paper universe.
func gridDict(t *testing.T, name string) (*Dictionary, circuits.CUT) {
	t.Helper()
	cut, err := circuits.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	u, err := fault.PaperUniverse(cut.Passives)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(cut.Circuit, cut.Source, cut.Output, u)
	if err != nil {
		t.Fatal(err)
	}
	return d, cut
}

// oracleMag is |H(jω)| of a circuit by the analysis clone-and-solve path.
func oracleMag(t *testing.T, c *circuit.Circuit, source, output string, omega float64) float64 {
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

// checkVariantSignature pins CircuitSignature on variant against the
// analysis oracle: each coordinate |H_variant| − |H_golden| to 1e-9 of
// the response scale.
func checkVariantSignature(t *testing.T, d *Dictionary, cut circuits.CUT, variant *circuit.Circuit, omegas []float64) {
	t.Helper()
	sig, err := d.CircuitSignature(variant, omegas)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range omegas {
		hv := oracleMag(t, variant, cut.Source, cut.Output, w)
		hg := oracleMag(t, cut.Circuit, cut.Source, cut.Output, w)
		if diff := math.Abs(sig[i] - (hv - hg)); diff > 1e-9*math.Max(hv, hg) {
			t.Errorf("ω=%g: signature %.15g vs analysis %.15g (|Δ| %.3g)", w, sig[i], hv-hg, diff)
		}
	}
}

// TestCircuitSignatureVariantSharesPattern pins the variant path on a
// 0.05%-perturbed rc-grid-16 board: the variant engine shares the golden
// symbolic analysis (pointer-identical pattern), solves on the sparse
// pattern, and its signature matches the analysis oracle. The same
// holds for value-only hard faults (fault.Catastrophic open and short,
// as diagnosis.CatastrophicPoints applies them).
func TestCircuitSignatureVariantSharesPattern(t *testing.T) {
	d, cut := gridDict(t, "rc-grid-16")
	omegas := []float64{cut.Omega0 / 5, cut.Omega0, cut.Omega0 * 5}
	golden := d.Engine().Template().SparsePattern()
	if golden == nil {
		t.Fatal("rc-grid-16 compiled no sparse pattern")
	}
	board, err := fault.Tolerance{Sigma: 0.0005}.Perturb(cut.Circuit, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	v, err := d.Engine().Variant(board)
	if err != nil {
		t.Fatal(err)
	}
	if v.Template().SparsePattern() != golden {
		t.Fatal("perturbed board did not share the golden symbolic analysis")
	}
	for _, w := range omegas {
		got, err := v.GoldenResponse(w)
		if err != nil {
			t.Fatal(err)
		}
		want := oracleMag(t, board, cut.Source, cut.Output, w)
		if re := math.Abs(got-want) / want; re > 1e-9 {
			t.Errorf("board ω=%g: variant %.15g vs analysis %.15g (rel %.3g)", w, got, want, re)
		}
	}
	if st := v.Stats(); st.SinglePointSparse != int64(len(omegas)) || st.SinglePointDense != 0 {
		t.Errorf("board solves: %d sparse, %d dense; want %d sparse", st.SinglePointSparse, st.SinglePointDense, len(omegas))
	}
	checkVariantSignature(t, d, cut, board, omegas)

	for _, cat := range []fault.Catastrophic{{Component: cut.Passives[0], Open: true}, {Component: cut.Passives[1], Open: false}} {
		c, err := cat.Apply(d.Golden())
		if err != nil {
			t.Fatal(err)
		}
		v, err := d.Engine().Variant(c)
		if err != nil {
			t.Fatal(err)
		}
		if v.Template().SparsePattern() != golden {
			t.Errorf("%s did not share the golden symbolic analysis", cat.ID())
		}
		checkVariantSignature(t, d, cut, c, omegas)
	}
}

// TestCircuitSignatureTopologyChangeRecompiles pins variants whose stamp
// pattern differs from the golden one — a bridging short added between
// two distant grid nodes, and a resistor removed outright (a true open)
// — to a fresh symbolic analysis that still matches the oracle.
func TestCircuitSignatureTopologyChangeRecompiles(t *testing.T) {
	d, cut := gridDict(t, "rc-grid-16")
	omegas := []float64{cut.Omega0 / 5, cut.Omega0, cut.Omega0 * 5}
	golden := d.Engine().Template().SparsePattern()

	bridged := cut.Circuit.Clone()
	bridged.MustAdd(circuit.NewResistor("Rbridge", "g3x4", "g9x12", 1e-3))
	opened := circuit.New("rc-grid-16-open")
	for _, e := range cut.Circuit.Elements() {
		if e.Name() != "Rh5x5" {
			opened.MustAdd(e.Clone())
		}
	}
	for _, c := range []*circuit.Circuit{bridged, opened} {
		v, err := d.Engine().Variant(c)
		if err != nil {
			t.Fatal(err)
		}
		if p := v.Template().SparsePattern(); p == nil || p == golden {
			t.Errorf("topology-changed variant: pattern %p, want a fresh analysis (golden %p)", p, golden)
		}
		checkVariantSignature(t, d, cut, c, omegas)
	}
}

// TestSignatureSetAllocationBytes guards one cold single-fault signature
// on a thousand-node grid by allocated bytes: the exact solves run on
// the sparse pattern with pooled planes, not on dense n×n matrices.
func TestSignatureSetAllocationBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("thousand-node grid is slow under -short")
	}
	d, cut := gridDict(t, "rc-grid-32")
	f := fault.Fault{Component: cut.Passives[3], Deviation: 0.25}
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	_, err := d.SignatureSet(f, []float64{0.02, 0.05})
	runtime.ReadMemStats(&b)
	if err != nil {
		t.Fatal(err)
	}
	got := float64(b.TotalAlloc-a.TotalAlloc) / (1 << 20)
	t.Logf("SignatureSet(rc-grid-32): %.2f MB", got)
	if got >= 5 {
		t.Fatalf("SignatureSet on rc-grid-32 allocated %.2f MB, want < 5 MB", got)
	}
}
