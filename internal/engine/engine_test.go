package engine

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/analysis"
	"repro/internal/circuit"
	"repro/internal/circuits"
	"repro/internal/fault"
	"repro/internal/numeric"
)

// relErr returns |a-b| / max(|a|, |b|, floor).
func relErr(a, b float64) float64 {
	return relErrFloor(a, b, 1e-30)
}

// relErrFloor is relErr with an absolute noise floor: responses far below
// the circuit's overall response scale (e.g. at a notch null) are
// numerical noise in both paths and compare as equal.
func relErrFloor(a, b, floor float64) float64 {
	scale := math.Max(math.Max(math.Abs(a), math.Abs(b)), floor)
	return math.Abs(a-b) / scale
}

// TestTemplateMatchesStampAt verifies the compiled stamp program against
// the elements' own Stamp methods for every benchmark CUT across a
// frequency spread — the structural correctness of the whole engine.
func TestTemplateMatchesStampAt(t *testing.T) {
	for _, cut := range circuits.All() {
		tmpl, err := Compile(cut.Circuit)
		if err != nil {
			t.Fatalf("%s: %v", cut.Circuit.Name(), err)
		}
		for _, w := range []float64{0, 1e-3, 0.3, 1, 7.7, 1e3} {
			s := complex(0, w)
			want, wantB, err := tmpl.System().StampAt(s)
			if err != nil {
				t.Fatal(err)
			}
			got := numeric.NewMatrix(tmpl.Size(), tmpl.Size())
			tmpl.stampGolden(got, s)
			if !got.Equalish(want, 1e-12*(1+want.MaxAbs())) {
				t.Fatalf("%s: template A mismatch at ω=%g", cut.Circuit.Name(), w)
			}
			for i := range wantB {
				if cmplx.Abs(tmpl.RHS()[i]-wantB[i]) > 1e-12 {
					t.Fatalf("%s: template b mismatch at ω=%g", cut.Circuit.Name(), w)
				}
			}
		}
	}
}

// TestResponseMatchesAnalysis compares the engine's exact per-point path
// against the classic clone+assemble+solve path over faults and
// frequencies for every benchmark CUT.
func TestResponseMatchesAnalysis(t *testing.T) {
	for _, cut := range circuits.All() {
		eng, err := New(cut.Circuit, cut.Source, cut.Output)
		if err != nil {
			t.Fatalf("%s: %v", cut.Circuit.Name(), err)
		}
		u, err := fault.PaperUniverse(cut.Passives)
		if err != nil {
			t.Fatal(err)
		}
		omegas := numeric.Logspace(cut.Omega0/50, cut.Omega0*50, 7)
		faults := append([]fault.Fault{{}}, u.Faults()...)
		for _, f := range faults {
			faulty, err := f.Apply(cut.Circuit)
			if err != nil {
				t.Fatal(err)
			}
			ac, err := analysis.NewAC(faulty)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range omegas {
				h, err := ac.Transfer(cut.Source, cut.Output, w)
				if err != nil {
					t.Fatal(err)
				}
				got, err := eng.Response(f, w)
				if err != nil {
					t.Fatal(err)
				}
				if re := relErr(got, cmplx.Abs(h)); re > 1e-9 {
					t.Fatalf("%s: fault %s ω=%g: engine %.15g vs analysis %.15g (rel %g)",
						cut.Circuit.Name(), f.ID(), w, got, cmplx.Abs(h), re)
				}
			}
		}
	}
}

// TestBatchAgreesWithResponse is the acceptance-criterion check: the
// Sherman–Morrison batch path agrees with the exact per-point path to
// within 1e-9 relative error on the full paper universe × a 32-point log
// sweep.
func TestBatchAgreesWithResponse(t *testing.T) {
	cut := circuits.NFLowpass7()
	eng, err := New(cut.Circuit, cut.Source, cut.Output)
	if err != nil {
		t.Fatal(err)
	}
	u, err := fault.PaperUniverse(cut.Passives)
	if err != nil {
		t.Fatal(err)
	}
	faults := u.Faults()
	omegas := numeric.Logspace(0.01, 100, 32)
	batch, err := eng.BatchResponses(nil, faults, omegas, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Mags) != len(faults) || len(batch.Golden) != len(omegas) {
		t.Fatalf("batch shape %dx%d, want %dx%d", len(batch.Mags), len(batch.Golden), len(faults), len(omegas))
	}
	for j, w := range omegas {
		g, err := eng.GoldenResponse(w)
		if err != nil {
			t.Fatal(err)
		}
		if re := relErr(batch.Golden[j], g); re > 1e-9 {
			t.Fatalf("golden ω=%g: batch %.15g vs exact %.15g (rel %g)", w, batch.Golden[j], g, re)
		}
		for i, f := range faults {
			exact, err := eng.Response(f, w)
			if err != nil {
				t.Fatal(err)
			}
			if re := relErr(batch.Mags[i][j], exact); re > 1e-9 {
				t.Fatalf("fault %s ω=%g: batch %.15g vs exact %.15g (rel %g)",
					f.ID(), w, batch.Mags[i][j], exact, re)
			}
		}
	}
}

// TestBatchAllCUTs runs a smaller agreement sweep over every benchmark
// circuit, exercising inductor and notch topologies where rank-1 updates
// are most likely to go ill-conditioned.
func TestBatchAllCUTs(t *testing.T) {
	for _, cut := range circuits.All() {
		eng, err := New(cut.Circuit, cut.Source, cut.Output)
		if err != nil {
			t.Fatalf("%s: %v", cut.Circuit.Name(), err)
		}
		u, err := fault.PaperUniverse(cut.Passives)
		if err != nil {
			t.Fatal(err)
		}
		faults := u.Faults()
		omegas := numeric.Logspace(cut.Omega0/100, cut.Omega0*100, 9)
		batch, err := eng.BatchResponses(nil, faults, omegas, 2)
		if err != nil {
			t.Fatal(err)
		}
		// Noise floor: responses far below the circuit's peak golden
		// response (notch nulls) still must agree to 1e-12·peak absolute,
		// but are not held to 1e-9 relative on their noise digits.
		var peak float64
		for _, g := range batch.Golden {
			peak = math.Max(peak, g)
		}
		floor := 1e-3 * peak
		for i, f := range faults {
			for j, w := range omegas {
				exact, err := eng.Response(f, w)
				if err != nil {
					t.Fatal(err)
				}
				if re := relErrFloor(batch.Mags[i][j], exact, floor); re > 1e-9 {
					t.Fatalf("%s: fault %s ω=%g: batch %.15g vs exact %.15g (rel %g)",
						cut.Circuit.Name(), f.ID(), w, batch.Mags[i][j], exact, re)
				}
			}
		}
	}
}

// TestBatchSignatures checks the signature helper: golden rows vanish and
// fault rows equal mag − golden.
func TestBatchSignatures(t *testing.T) {
	cut := circuits.NFLowpass7()
	eng, err := New(cut.Circuit, cut.Source, cut.Output)
	if err != nil {
		t.Fatal(err)
	}
	faults := []fault.Fault{{}, {Component: "R3", Deviation: 0.4}}
	batch, err := eng.BatchResponses(nil, faults, []float64{0.5, 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	sigs := batch.Signatures()
	for _, v := range sigs[0] {
		if v != 0 {
			t.Fatalf("golden signature %v, want zeros", sigs[0])
		}
	}
	for j := range sigs[1] {
		want := batch.Mags[1][j] - batch.Golden[j]
		if sigs[1][j] != want {
			t.Fatalf("signature[%d] = %g, want %g", j, sigs[1][j], want)
		}
	}
}

// TestEngineErrors covers the validation paths.
func TestEngineErrors(t *testing.T) {
	cut := circuits.NFLowpass7()
	if _, err := New(cut.Circuit, "nosuch", cut.Output); err == nil {
		t.Fatal("unknown source accepted")
	}
	if _, err := New(cut.Circuit, "R1", cut.Output); err == nil {
		t.Fatal("non-source element accepted as source")
	}
	if _, err := New(cut.Circuit, cut.Source, "nosuchnode"); err == nil {
		t.Fatal("unknown output node accepted")
	}
	eng, err := New(cut.Circuit, cut.Source, cut.Output)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Response(fault.Fault{Component: "R99", Deviation: 0.1}, 1); err == nil {
		t.Fatal("unknown component accepted")
	}
	if _, err := eng.Response(fault.Fault{Component: "U1", Deviation: 0.1}, 1); err == nil {
		t.Fatal("non-valued component accepted")
	}
	if _, err := eng.Response(fault.Fault{Component: "R1", Deviation: -1}, 1); err == nil {
		t.Fatal("-100% deviation accepted")
	}
	if _, err := eng.GoldenResponse(-1); err == nil {
		t.Fatal("negative frequency accepted")
	}
	if _, err := eng.BatchResponses(nil, []fault.Fault{{}}, nil, 1); err == nil {
		t.Fatal("empty omega list accepted")
	}
	if _, err := eng.BatchResponses(nil, []fault.Fault{{}}, []float64{1, -2}, 1); err == nil {
		t.Fatal("negative frequency in batch accepted")
	}
	if _, err := eng.BatchResponses(nil, []fault.Fault{{Component: "R99", Deviation: 0.1}}, []float64{1}, 1); err == nil {
		t.Fatal("unknown batch component accepted")
	}
	// A circuit with a zero-amplitude source is rejected at New.
	c := circuit.New("zero-amp")
	c.MustAdd(circuit.NewVSource("V1", "a", "0", 0))
	c.MustAdd(circuit.NewResistor("R1", "a", "0", 1))
	if _, err := New(c, "V1", "a"); err == nil {
		t.Fatal("zero-amplitude source accepted")
	}
}

// TestSlotAccessors covers HasSlot / SlotValue.
func TestSlotAccessors(t *testing.T) {
	cut := circuits.NFLowpass7()
	tmpl, err := Compile(cut.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	if !tmpl.HasSlot("R1") || tmpl.HasSlot("U1") || tmpl.HasSlot("Vin") {
		t.Fatal("slot membership wrong")
	}
	v, ok := tmpl.SlotValue("C2")
	if !ok || v != 2 {
		t.Fatalf("SlotValue(C2) = %g, %v", v, ok)
	}
	if _, ok := tmpl.SlotValue("nosuch"); ok {
		t.Fatal("SlotValue for unknown element")
	}
}

// TestVerifyRejectsCorruptTemplate pins the O(nnz) template verification
// as a real check: a compiled template whose static entry, slot value or
// RHS drifts from the element stamps must fail verification.
func TestVerifyRejectsCorruptTemplate(t *testing.T) {
	cut := circuits.TowThomasLP()
	probes := []complex128{0, complex(0, 2.7182818)}
	for _, corrupt := range []struct {
		name string
		fn   func(*Template)
	}{
		{"static", func(tm *Template) { tm.static[0].v += 1e-6 }},
		{"slot", func(tm *Template) { tm.slots[0].value *= 1 + 1e-6 }},
		{"rhs", func(tm *Template) { tm.b[len(tm.b)-1] += 1e-6 }},
	} {
		tmpl, err := Compile(cut.Circuit)
		if err != nil {
			t.Fatal(err)
		}
		if err := tmpl.verify(probes...); err != nil {
			t.Fatalf("pristine template rejected: %v", err)
		}
		corrupt.fn(tmpl)
		if err := tmpl.verify(probes...); err == nil {
			t.Errorf("%s corruption passed verification", corrupt.name)
		}
	}
}
