// Package circuit models lumped linear analog networks as named elements
// connected at named nodes, with Modified Nodal Analysis (MNA) stamping
// for AC analysis. It is the substrate the paper's fault simulation runs
// on: faults are injected by cloning a circuit and scaling one element's
// value.
package circuit

import (
	"fmt"

	"repro/internal/numeric"
)

// GroundName is the canonical name of the reference node. "gnd" and "GND"
// are accepted as aliases when adding elements.
const GroundName = "0"

// Stamp carries the in-progress MNA system an element contributes to.
//
// Row/column convention: indices 0..n-1 are the non-ground node voltages;
// indices n.. are auxiliary branch currents (voltage sources, inductors,
// controlled voltage sources, opamp outputs). Ground maps to index -1 and
// all its stamps are dropped.
type Stamp struct {
	// A is the (n+aux)×(n+aux) complex MNA matrix. When A is nil the
	// stamp runs in triplet mode: AddA appends to Entries instead.
	A *numeric.Matrix
	// Entries collects the AddA contributions of a triplet-mode stamp in
	// call order, unmerged: an (i, j) position stamped twice appears
	// twice and its value is the sum.
	Entries []Entry
	// B is the right-hand side (source) vector.
	B []complex128
	// S is the complex frequency, jω for AC analysis.
	S complex128

	nodeOf map[string]int
	auxOf  map[string]int
}

// NodeIndex returns the matrix index of a node, -1 for ground.
func (st *Stamp) NodeIndex(name string) int {
	if isGround(name) {
		return -1
	}
	i, ok := st.nodeOf[name]
	if !ok {
		panic(fmt.Sprintf("circuit: stamping unknown node %q", name))
	}
	return i
}

// AuxIndex returns the auxiliary-variable row of a named element.
func (st *Stamp) AuxIndex(elem string) (int, bool) {
	i, ok := st.auxOf[elem]
	return i, ok
}

// Entry is one A-matrix contribution of a triplet-mode Stamp.
type Entry struct {
	I, J int
	V    complex128
}

// AddA accumulates v into A[i][j] (or, in triplet mode, records it),
// silently dropping ground (-1) indices.
func (st *Stamp) AddA(i, j int, v complex128) {
	if i < 0 || j < 0 {
		return
	}
	if st.A == nil {
		st.Entries = append(st.Entries, Entry{i, j, v})
		return
	}
	st.A.Add(i, j, v)
}

// AddB accumulates v into B[i], dropping ground.
func (st *Stamp) AddB(i int, v complex128) {
	if i < 0 {
		return
	}
	st.B[i] += v
}

// Element is any circuit component that can be stamped into an MNA system.
type Element interface {
	// Name returns the unique designator, e.g. "R3".
	Name() string
	// Nodes returns every node the element touches, in element-specific
	// order.
	Nodes() []string
	// NumAux returns how many auxiliary current variables the element
	// needs (0 for admittance-stamped parts).
	NumAux() int
	// Stamp adds the element's contribution at frequency st.S.
	Stamp(st *Stamp) error
	// Clone returns a deep copy (used for fault injection).
	Clone() Element
}

// Valued is implemented by elements with a single scalar parameter that a
// parametric fault can deviate (resistance, capacitance, inductance, or a
// controlled-source gain).
type Valued interface {
	Element
	Value() float64
	SetValue(v float64) error
}

func isGround(name string) bool {
	return name == "0" || name == "gnd" || name == "GND"
}

// twoTerminal covers the shared boilerplate of R, C, L, V, I.
type twoTerminal struct {
	name string
	a, b string // positive, negative node
}

func (t *twoTerminal) Name() string    { return t.name }
func (t *twoTerminal) Nodes() []string { return []string{t.a, t.b} }

// Resistor is an ideal linear resistor.
type Resistor struct {
	twoTerminal
	Ohms float64
}

// NewResistor returns a resistor of value ohms between nodes a and b.
func NewResistor(name, a, b string, ohms float64) *Resistor {
	return &Resistor{twoTerminal{name, a, b}, ohms}
}

// NumAux implements Element.
func (r *Resistor) NumAux() int { return 0 }

// Value implements Valued.
func (r *Resistor) Value() float64 { return r.Ohms }

// SetValue implements Valued.
func (r *Resistor) SetValue(v float64) error {
	if v <= 0 {
		return fmt.Errorf("circuit: %s: resistance must be positive, got %g", r.name, v)
	}
	r.Ohms = v
	return nil
}

// Clone implements Element.
func (r *Resistor) Clone() Element { c := *r; return &c }

// Stamp implements Element: admittance 1/R between the terminals.
func (r *Resistor) Stamp(st *Stamp) error {
	if r.Ohms <= 0 {
		return fmt.Errorf("circuit: %s: nonpositive resistance %g", r.name, r.Ohms)
	}
	g := complex(1/r.Ohms, 0)
	i, j := st.NodeIndex(r.a), st.NodeIndex(r.b)
	st.AddA(i, i, g)
	st.AddA(j, j, g)
	st.AddA(i, j, -g)
	st.AddA(j, i, -g)
	return nil
}

// Capacitor is an ideal linear capacitor.
type Capacitor struct {
	twoTerminal
	Farads float64
}

// NewCapacitor returns a capacitor of value farads between a and b.
func NewCapacitor(name, a, b string, farads float64) *Capacitor {
	return &Capacitor{twoTerminal{name, a, b}, farads}
}

// NumAux implements Element.
func (c *Capacitor) NumAux() int { return 0 }

// Value implements Valued.
func (c *Capacitor) Value() float64 { return c.Farads }

// SetValue implements Valued.
func (c *Capacitor) SetValue(v float64) error {
	if v <= 0 {
		return fmt.Errorf("circuit: %s: capacitance must be positive, got %g", c.name, v)
	}
	c.Farads = v
	return nil
}

// Clone implements Element.
func (c *Capacitor) Clone() Element { cp := *c; return &cp }

// Stamp implements Element: admittance sC.
func (c *Capacitor) Stamp(st *Stamp) error {
	if c.Farads <= 0 {
		return fmt.Errorf("circuit: %s: nonpositive capacitance %g", c.name, c.Farads)
	}
	y := st.S * complex(c.Farads, 0)
	i, j := st.NodeIndex(c.a), st.NodeIndex(c.b)
	st.AddA(i, i, y)
	st.AddA(j, j, y)
	st.AddA(i, j, -y)
	st.AddA(j, i, -y)
	return nil
}

// Inductor is an ideal linear inductor. It is stamped with an auxiliary
// branch current so that DC (s = 0) remains solvable as a short.
type Inductor struct {
	twoTerminal
	Henries float64
}

// NewInductor returns an inductor of value henries between a and b.
func NewInductor(name, a, b string, henries float64) *Inductor {
	return &Inductor{twoTerminal{name, a, b}, henries}
}

// NumAux implements Element.
func (l *Inductor) NumAux() int { return 1 }

// Value implements Valued.
func (l *Inductor) Value() float64 { return l.Henries }

// SetValue implements Valued.
func (l *Inductor) SetValue(v float64) error {
	if v <= 0 {
		return fmt.Errorf("circuit: %s: inductance must be positive, got %g", l.name, v)
	}
	l.Henries = v
	return nil
}

// Clone implements Element.
func (l *Inductor) Clone() Element { c := *l; return &c }

// Stamp implements Element: V(a) - V(b) - sL·I = 0 with branch current I.
func (l *Inductor) Stamp(st *Stamp) error {
	if l.Henries <= 0 {
		return fmt.Errorf("circuit: %s: nonpositive inductance %g", l.name, l.Henries)
	}
	k, ok := st.AuxIndex(l.name)
	if !ok {
		return fmt.Errorf("circuit: %s: missing aux variable", l.name)
	}
	i, j := st.NodeIndex(l.a), st.NodeIndex(l.b)
	// KCL contributions of the branch current.
	st.AddA(i, k, 1)
	st.AddA(j, k, -1)
	// Branch equation.
	st.AddA(k, i, 1)
	st.AddA(k, j, -1)
	st.AddA(k, k, -st.S*complex(l.Henries, 0))
	return nil
}

// VSource is an independent AC voltage source with complex amplitude
// (magnitude and phase of the phasor).
type VSource struct {
	twoTerminal
	Amplitude complex128
}

// NewVSource returns a voltage source of the given phasor amplitude with
// positive terminal a.
func NewVSource(name, a, b string, amplitude complex128) *VSource {
	return &VSource{twoTerminal{name, a, b}, amplitude}
}

// NumAux implements Element.
func (v *VSource) NumAux() int { return 1 }

// Clone implements Element.
func (v *VSource) Clone() Element { c := *v; return &c }

// Stamp implements Element: V(a) - V(b) = amplitude with branch current.
func (v *VSource) Stamp(st *Stamp) error {
	k, ok := st.AuxIndex(v.name)
	if !ok {
		return fmt.Errorf("circuit: %s: missing aux variable", v.name)
	}
	i, j := st.NodeIndex(v.a), st.NodeIndex(v.b)
	st.AddA(i, k, 1)
	st.AddA(j, k, -1)
	st.AddA(k, i, 1)
	st.AddA(k, j, -1)
	st.AddB(k, v.Amplitude)
	return nil
}

// ISource is an independent AC current source; current flows from node a
// through the source to node b (i.e. it injects into b).
type ISource struct {
	twoTerminal
	Amplitude complex128
}

// NewISource returns a current source of the given phasor amplitude.
func NewISource(name, a, b string, amplitude complex128) *ISource {
	return &ISource{twoTerminal{name, a, b}, amplitude}
}

// NumAux implements Element.
func (s *ISource) NumAux() int { return 0 }

// Clone implements Element.
func (s *ISource) Clone() Element { c := *s; return &c }

// Stamp implements Element.
func (s *ISource) Stamp(st *Stamp) error {
	i, j := st.NodeIndex(s.a), st.NodeIndex(s.b)
	st.AddB(i, -s.Amplitude)
	st.AddB(j, s.Amplitude)
	return nil
}
