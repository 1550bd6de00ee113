package circuit

import (
	"strings"
	"testing"

	"repro/internal/numeric"
)

func TestMustAddPanicsOnDuplicate(t *testing.T) {
	c := New("t")
	c.MustAdd(NewResistor("R1", "a", "0", 1))
	defer func() {
		if recover() == nil {
			t.Fatal("MustAdd did not panic on duplicate")
		}
	}()
	c.MustAdd(NewResistor("R1", "b", "0", 1))
}

func TestNewStampSizeMismatch(t *testing.T) {
	c := New("t")
	c.MustAdd(NewVSource("V1", "a", "0", 1))
	c.MustAdd(NewResistor("R1", "a", "0", 1))
	sys, err := c.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.NewStamp(numeric.NewMatrix(1, 1), make([]complex128, 1), 0); err == nil {
		t.Fatal("undersized stamp storage accepted")
	}
	if _, err := sys.NewStamp(numeric.NewMatrix(sys.Size(), sys.Size()), make([]complex128, 0), 0); err == nil {
		t.Fatal("undersized rhs accepted")
	}
}

func TestStampUnknownNodePanics(t *testing.T) {
	c := New("t")
	c.MustAdd(NewVSource("V1", "a", "0", 1))
	c.MustAdd(NewResistor("R1", "a", "0", 1))
	sys, err := c.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	st, err := sys.NewStamp(numeric.NewMatrix(sys.Size(), sys.Size()), make([]complex128, sys.Size()), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown node did not panic")
		}
	}()
	st.NodeIndex("ghost")
}

// missingAuxStamp builds a Stamp whose aux map is empty so every element
// needing a branch current reports its error path.
func missingAuxStamp(t *testing.T, c *Circuit) *Stamp {
	t.Helper()
	sys, err := c.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	n := sys.Size()
	// A Stamp built from a *different* circuit's system lacks this one's
	// aux entries; emulate by using a fresh minimal circuit.
	other := New("other")
	other.MustAdd(NewVSource("Vx", "a", "0", 1))
	other.MustAdd(NewResistor("Rx", "a", "0", 1))
	// Map the same node names so NodeIndex works but AuxIndex misses.
	_ = n
	osys, err := other.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	st, err := osys.NewStamp(numeric.NewMatrix(osys.Size(), osys.Size()), make([]complex128, osys.Size()), 1i)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestStampMissingAuxErrors(t *testing.T) {
	// Elements that require branch currents must error (not panic) when
	// the stamp lacks their aux entry.
	c := New("t")
	c.MustAdd(NewVSource("V9", "a", "0", 1))
	c.MustAdd(NewInductor("L9", "a", "0", 1))
	c.MustAdd(NewVCVS("E9", "a", "0", "a", "0", 2))
	c.MustAdd(NewIdealOpAmp("U9", "a", "0", "a"))
	st := missingAuxStamp(t, c)
	for _, e := range c.Elements() {
		if e.NumAux() == 0 {
			continue
		}
		if err := e.Stamp(st); err == nil {
			t.Errorf("%s: missing aux accepted", e.Name())
		}
	}
}

func TestCCVSAndCCCSMissingControl(t *testing.T) {
	c := New("t")
	c.MustAdd(NewVSource("V1", "a", "0", 1))
	c.MustAdd(NewResistor("R1", "a", "0", 1))
	c.MustAdd(NewCCVS("H1", "a", "0", "Vmissing", 10))
	sys, err := c.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sys.StampAt(1i); err == nil || !strings.Contains(err.Error(), "Vmissing") {
		t.Fatalf("err = %v, want missing-control complaint", err)
	}

	c2 := New("t2")
	c2.MustAdd(NewVSource("V1", "a", "0", 1))
	c2.MustAdd(NewResistor("R1", "a", "0", 1))
	c2.MustAdd(NewCCCS("F1", "a", "0", "R1", 2)) // R1 has no branch current
	sys2, err := c2.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sys2.StampAt(1i); err == nil {
		t.Fatal("CCCS controlled by branchless element accepted")
	}
}

func TestAddAAndAddBDropGround(t *testing.T) {
	c := New("t")
	c.MustAdd(NewVSource("V1", "a", "0", 1))
	c.MustAdd(NewResistor("R1", "a", "0", 1))
	sys, err := c.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	a := numeric.NewMatrix(sys.Size(), sys.Size())
	b := make([]complex128, sys.Size())
	st, err := sys.NewStamp(a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	st.AddA(-1, 0, 5)
	st.AddA(0, -1, 5)
	st.AddB(-1, 5)
	if a.MaxAbs() != 0 || b[0] != 0 {
		t.Fatal("ground stamps leaked into the system")
	}
}

func TestElementNamesOrder(t *testing.T) {
	c := New("t")
	c.MustAdd(NewVSource("V1", "a", "0", 1))
	c.MustAdd(NewResistor("R1", "a", "b", 1))
	c.MustAdd(NewCapacitor("C1", "b", "0", 1))
	names := c.ElementNames()
	if len(names) != 3 || names[0] != "V1" || names[2] != "C1" {
		t.Fatalf("names = %v", names)
	}
}

func TestHasNodeEmptyCircuit(t *testing.T) {
	c := New("t")
	if c.HasNode("0") {
		t.Fatal("ground present in empty circuit")
	}
}

func TestISourceMetadataAndClone(t *testing.T) {
	s := NewISource("I1", "a", "b", 2+1i)
	if s.NumAux() != 0 || len(s.Nodes()) != 2 {
		t.Fatal("ISource metadata wrong")
	}
	cl := s.Clone().(*ISource)
	cl.Amplitude = 9
	if s.Amplitude != 2+1i {
		t.Fatal("ISource clone aliases")
	}
	v := NewVSource("V1", "a", "b", 1)
	vc := v.Clone().(*VSource)
	vc.Amplitude = 5
	if v.Amplitude != 1 {
		t.Fatal("VSource clone aliases")
	}
	l := NewInductor("L1", "a", "b", 3)
	lc := l.Clone().(*Inductor)
	lc.Henries = 9
	if l.Value() != 3 {
		t.Fatal("Inductor clone aliases")
	}
	o := NewIdealOpAmp("U1", "p", "n", "o")
	oc := o.Clone().(*IdealOpAmp)
	oc.Out = "x"
	if o.Out != "o" {
		t.Fatal("opamp clone aliases")
	}
	for _, e := range []Element{
		NewVCCS("G1", "a", "0", "b", "0", 1).Clone(),
		NewCCVS("H1", "a", "0", "V1", 1).Clone(),
		NewCCCS("F1", "a", "0", "V1", 1).Clone(),
	} {
		if e.Name() == "" {
			t.Fatal("clone lost name")
		}
	}
}

// TestControlledSourceStampsSolve stamps every controlled-source type
// and the ideal opamp through a real assembly and verifies the solved
// voltages directly at the matrix level (the analysis package has the
// behavioural versions; this pins the stamps themselves).
func TestControlledSourceStampsSolve(t *testing.T) {
	c := New("all-controlled")
	c.MustAdd(NewVSource("V1", "in", "0", 1))
	c.MustAdd(NewResistor("R0", "in", "0", 1000)) // control current: 1 mA
	// VCVS ×2 from in.
	c.MustAdd(NewVCVS("E1", "e", "0", "in", "0", 2))
	c.MustAdd(NewResistor("Re", "e", "0", 50))
	// VCCS 3 mS from in into 1 kΩ.
	c.MustAdd(NewVCCS("G1", "g", "0", "in", "0", 3e-3))
	c.MustAdd(NewResistor("Rg", "g", "0", 1000))
	// CCVS 2 kΩ on V1's current.
	c.MustAdd(NewCCVS("H1", "h", "0", "V1", 2000))
	c.MustAdd(NewResistor("Rh", "h", "0", 50))
	// CCCS gain 4 of V1's current into 500 Ω.
	c.MustAdd(NewCCCS("F1", "f", "0", "V1", 4))
	c.MustAdd(NewResistor("Rf", "f", "0", 500))
	// Ideal opamp as a unity follower on node in.
	c.MustAdd(NewIdealOpAmp("U1", "in", "u", "u"))
	c.MustAdd(NewResistor("Ru", "u", "0", 50))

	sys, err := c.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	a, b, err := sys.StampAt(0)
	if err != nil {
		t.Fatal(err)
	}
	x, err := numeric.Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	get := func(node string) float64 {
		i, err := sys.NodeIndex(node)
		if err != nil {
			t.Fatal(err)
		}
		return real(x[i])
	}
	// V1 supplies R0 (1 mA) only — controlled sources and the follower
	// draw no input current.
	if got := get("e"); got != 2 {
		t.Errorf("VCVS out = %g, want 2", got)
	}
	if got := get("g"); got != -3 {
		t.Errorf("VCCS out = %g, want -3", got)
	}
	// I(V1) = -1 mA by the MNA convention; CCVS gives -2 V, CCCS -2 V
	// into 500 Ω... F pushes 4·I from f to 0: V(f) = 4·(-1mA)·(-500)...
	// assert magnitudes, signs follow the stamp convention.
	if got := get("h"); got != -2 {
		t.Errorf("CCVS out = %g, want -2", got)
	}
	if got := get("f"); got != 2 {
		t.Errorf("CCCS out = %g, want 2", got)
	}
	if got := get("u"); got != 1 {
		t.Errorf("follower out = %g, want 1", got)
	}
}

func TestInductorACBehaviour(t *testing.T) {
	// Direct stamp-level check of the inductor at a frequency: a
	// voltage divider R-L gives |V_L| = ωL/sqrt(R²+(ωL)²).
	c := New("rl")
	c.MustAdd(NewVSource("V1", "in", "0", 1))
	c.MustAdd(NewResistor("R1", "in", "out", 1))
	c.MustAdd(NewInductor("L1", "out", "0", 1))
	sys, err := c.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	a, b, err := sys.StampAt(complex(0, 2)) // ω = 2
	if err != nil {
		t.Fatal(err)
	}
	x, err := numeric.Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	i, err := sys.NodeIndex("out")
	if err != nil {
		t.Fatal(err)
	}
	// |H| = 2/sqrt(5).
	got := x[i]
	mag := real(got)*real(got) + imag(got)*imag(got)
	want := 4.0 / 5.0
	if mag < want-1e-9 || mag > want+1e-9 {
		t.Fatalf("|V_L|² = %g, want %g", mag, want)
	}
}

// TestStampEntriesMatchesStampAt pins triplet mode against the dense
// stamp: summing StampEntries' unmerged contributions per position
// reproduces StampAt's matrix exactly, with the same RHS, on a circuit
// holding every element type; dst is appended to, not replaced.
func TestStampEntriesMatchesStampAt(t *testing.T) {
	c := New("every-element")
	c.MustAdd(NewVSource("V1", "in", "0", 1))
	c.MustAdd(NewISource("I1", "in", "m", 2e-3))
	c.MustAdd(NewResistor("R1", "in", "m", 1000))
	c.MustAdd(NewCapacitor("C1", "m", "0", 1e-6))
	c.MustAdd(NewInductor("L1", "m", "e", 1e-3))
	c.MustAdd(NewVCVS("E1", "e", "0", "in", "m", 2))
	c.MustAdd(NewVCCS("G1", "g", "0", "in", "0", 3e-3))
	c.MustAdd(NewResistor("Rg", "g", "0", 1000))
	c.MustAdd(NewCCVS("H1", "h", "0", "V1", 2000))
	c.MustAdd(NewResistor("Rh", "h", "0", 50))
	c.MustAdd(NewCCCS("F1", "f", "0", "V1", 4))
	c.MustAdd(NewResistor("Rf", "f", "0", 500))
	c.MustAdd(NewIdealOpAmp("U1", "in", "u", "u"))
	c.MustAdd(NewResistor("Ru", "u", "0", 50))
	sys, err := c.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []complex128{0, 1i, 2.5e3i} {
		a, b, err := sys.StampAt(s)
		if err != nil {
			t.Fatal(err)
		}
		prefix := []Entry{{I: -7}}
		entries, eb, err := sys.StampEntries(s, prefix)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) < 2 || entries[0].I != -7 {
			t.Fatalf("s=%v: StampEntries did not append to dst", s)
		}
		sum := numeric.NewMatrix(sys.Size(), sys.Size())
		for _, e := range entries[1:] {
			sum.Add(e.I, e.J, e.V)
		}
		if !sum.Equalish(a, 0) {
			t.Fatalf("s=%v: merged triplets differ from StampAt", s)
		}
		for i := range b {
			if eb[i] != b[i] {
				t.Fatalf("s=%v: RHS[%d] = %v, StampAt %v", s, i, eb[i], b[i])
			}
		}
	}
}
