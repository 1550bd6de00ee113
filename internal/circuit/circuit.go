package circuit

import (
	"fmt"
	"sort"

	"repro/internal/numeric"
)

// Circuit is a named collection of elements connected at named nodes.
// Node names are created implicitly the first time an element touches
// them; "0", "gnd" and "GND" all denote the reference node.
type Circuit struct {
	name     string
	elements []Element
	byName   map[string]Element
	nodeSet  map[string]bool // non-ground node names
}

// New returns an empty circuit with the given name.
func New(name string) *Circuit {
	return &Circuit{
		name:    name,
		byName:  make(map[string]Element),
		nodeSet: make(map[string]bool),
	}
}

// Name returns the circuit's name.
func (c *Circuit) Name() string { return c.name }

// Add inserts an element. Element names must be unique within the circuit.
func (c *Circuit) Add(e Element) error {
	if e.Name() == "" {
		return fmt.Errorf("circuit %s: element with empty name", c.name)
	}
	if _, dup := c.byName[e.Name()]; dup {
		return fmt.Errorf("circuit %s: duplicate element name %q", c.name, e.Name())
	}
	for _, n := range e.Nodes() {
		if n == "" {
			return fmt.Errorf("circuit %s: element %s has an empty node name", c.name, e.Name())
		}
		if !isGround(n) {
			c.nodeSet[n] = true
		}
	}
	c.elements = append(c.elements, e)
	c.byName[e.Name()] = e
	return nil
}

// MustAdd is Add that panics on error, for programmatic circuit builders
// whose inputs are compile-time constants.
func (c *Circuit) MustAdd(e Element) {
	if err := c.Add(e); err != nil {
		panic(err)
	}
}

// Element returns the element with the given name.
func (c *Circuit) Element(name string) (Element, bool) {
	e, ok := c.byName[name]
	return e, ok
}

// Elements returns the elements in insertion order. The caller must not
// mutate the returned slice.
func (c *Circuit) Elements() []Element { return c.elements }

// ElementNames returns all element names in insertion order.
func (c *Circuit) ElementNames() []string {
	out := make([]string, len(c.elements))
	for i, e := range c.elements {
		out[i] = e.Name()
	}
	return out
}

// ValuedNames returns the names of elements that accept parametric faults
// (those implementing Valued), in insertion order.
func (c *Circuit) ValuedNames() []string {
	var out []string
	for _, e := range c.elements {
		if _, ok := e.(Valued); ok {
			out = append(out, e.Name())
		}
	}
	return out
}

// Nodes returns the sorted non-ground node names.
func (c *Circuit) Nodes() []string {
	out := make([]string, 0, len(c.nodeSet))
	for n := range c.nodeSet {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// NumNodes returns the count of non-ground nodes.
func (c *Circuit) NumNodes() int { return len(c.nodeSet) }

// HasNode reports whether the circuit references the node (ground counts
// as present whenever any element exists).
func (c *Circuit) HasNode(name string) bool {
	if isGround(name) {
		return len(c.elements) > 0
	}
	return c.nodeSet[name]
}

// Clone returns a deep copy of the circuit. Fault injection clones the
// golden circuit and perturbs one element, leaving the original pristine.
func (c *Circuit) Clone() *Circuit {
	out := New(c.name)
	for _, e := range c.elements {
		// Elements were validated on first Add; re-adding clones cannot
		// fail.
		out.MustAdd(e.Clone())
	}
	return out
}

// SetValue sets the scalar parameter of a Valued element by name.
func (c *Circuit) SetValue(name string, v float64) error {
	e, ok := c.byName[name]
	if !ok {
		return fmt.Errorf("circuit %s: no element %q", c.name, name)
	}
	val, ok := e.(Valued)
	if !ok {
		return fmt.Errorf("circuit %s: element %q has no scalar value", c.name, name)
	}
	return val.SetValue(v)
}

// Value returns the scalar parameter of a Valued element by name.
func (c *Circuit) Value(name string) (float64, error) {
	e, ok := c.byName[name]
	if !ok {
		return 0, fmt.Errorf("circuit %s: no element %q", c.name, name)
	}
	val, ok := e.(Valued)
	if !ok {
		return 0, fmt.Errorf("circuit %s: element %q has no scalar value", c.name, name)
	}
	return val.Value(), nil
}

// ScaleValue multiplies the scalar parameter of a Valued element by k —
// the primitive behind parametric fault injection.
func (c *Circuit) ScaleValue(name string, k float64) error {
	v, err := c.Value(name)
	if err != nil {
		return err
	}
	return c.SetValue(name, v*k)
}

// System describes an assembled MNA system: the unknown ordering and a
// builder that fills a matrix for a given complex frequency.
type System struct {
	circ      *Circuit
	nodeOf    map[string]int
	auxOf     map[string]int
	nodeNames []string // index → name
	size      int
}

// Assemble validates the circuit and fixes the MNA variable ordering.
// The same System can then build stamped matrices at many frequencies.
func (c *Circuit) Assemble() (*System, error) {
	if len(c.elements) == 0 {
		return nil, fmt.Errorf("circuit %s: empty circuit", c.name)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	names := c.Nodes()
	nodeOf := make(map[string]int, len(names))
	for i, n := range names {
		nodeOf[n] = i
	}
	auxOf := make(map[string]int)
	next := len(names)
	for _, e := range c.elements {
		if e.NumAux() > 0 {
			auxOf[e.Name()] = next
			next += e.NumAux()
		}
	}
	return &System{circ: c, nodeOf: nodeOf, auxOf: auxOf, nodeNames: names, size: next}, nil
}

// Size returns the MNA system order (nodes + auxiliary currents).
func (s *System) Size() int { return s.size }

// NodeIndex returns the matrix index of a node, -1 for ground, and an
// error for unknown nodes.
func (s *System) NodeIndex(name string) (int, error) {
	if isGround(name) {
		return -1, nil
	}
	i, ok := s.nodeOf[name]
	if !ok {
		return 0, fmt.Errorf("circuit %s: unknown node %q", s.circ.name, name)
	}
	return i, nil
}

// BranchIndex returns the auxiliary-variable index of a named element.
func (s *System) BranchIndex(elem string) (int, bool) {
	i, ok := s.auxOf[elem]
	return i, ok
}

// NewStamp returns a Stamp that writes into caller-provided storage at
// complex frequency sFreq, using this system's variable ordering. It
// lets other analyses (e.g. transient companion models) reuse the
// elements' stamp logic.
func (s *System) NewStamp(a *numeric.Matrix, b []complex128, sFreq complex128) (*Stamp, error) {
	if a.Rows() != s.size || a.Cols() != s.size || len(b) != s.size {
		return nil, fmt.Errorf("circuit %s: stamp storage %dx%d/%d does not match system size %d",
			s.circ.name, a.Rows(), a.Cols(), len(b), s.size)
	}
	return &Stamp{A: a, B: b, S: sFreq, nodeOf: s.nodeOf, auxOf: s.auxOf}, nil
}

// StampAt builds the MNA matrix and RHS at complex frequency sFreq.
func (s *System) StampAt(sFreq complex128) (*numeric.Matrix, []complex128, error) {
	st, err := s.NewStamp(numeric.NewMatrix(s.size, s.size), make([]complex128, s.size), sFreq)
	if err != nil {
		return nil, nil, err
	}
	if err := s.stampAll(st); err != nil {
		return nil, nil, err
	}
	return st.A, st.B, nil
}

// StampEntries is StampAt in triplet mode: the MNA matrix comes back as
// the unmerged list of element contributions appended to dst (O(nnz)
// memory instead of O(n²); pass a reused or presized dst to avoid growth
// churn), the RHS as a dense vector.
func (s *System) StampEntries(sFreq complex128, dst []Entry) ([]Entry, []complex128, error) {
	st := &Stamp{Entries: dst, B: make([]complex128, s.size), S: sFreq, nodeOf: s.nodeOf, auxOf: s.auxOf}
	if err := s.stampAll(st); err != nil {
		return nil, nil, err
	}
	return st.Entries, st.B, nil
}

// stampAll runs every element's Stamp into st.
func (s *System) stampAll(st *Stamp) error {
	for _, e := range s.circ.elements {
		if err := e.Stamp(st); err != nil {
			return err
		}
	}
	return nil
}

// Validate checks structural sanity: every non-ground node must be
// touched by at least two element terminals (no dangling nodes), and the
// circuit must reference ground somewhere (otherwise the MNA matrix is
// singular by construction).
func (c *Circuit) Validate() error {
	// Nodes get dense ids in order of first touch; ground is id 0.
	// Connectivity: every node must be reachable from ground through
	// element adjacency, or its subnetwork floats and the matrix is
	// singular. All terminals of one element join one component of a
	// union-find over the ids, built in the same pass as the per-node
	// terminal counts.
	id := make(map[string]int32, len(c.nodeSet))
	names := make([]string, 1, len(c.nodeSet)+1)
	touch := make([]int, 1, len(c.nodeSet)+1)
	parent := make([]int32, 1, len(c.nodeSet)+1)
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	groundSeen := false
	for _, e := range c.elements {
		first := int32(-1)
		for _, n := range e.Nodes() {
			k := int32(0)
			if isGround(n) {
				groundSeen = true
			} else {
				var ok bool
				if k, ok = id[n]; !ok {
					k = int32(len(names))
					id[n] = k
					names = append(names, n)
					touch = append(touch, 0)
					parent = append(parent, k)
				}
				touch[k]++
			}
			if first < 0 {
				first = k
			} else if ra, rb := find(first), find(k); ra != rb {
				parent[rb] = ra
			}
		}
	}
	if !groundSeen {
		return fmt.Errorf("circuit %s: no element connects to ground", c.name)
	}
	var dangling []string
	for k := 1; k < len(touch); k++ {
		if touch[k] < 2 {
			dangling = append(dangling, names[k])
		}
	}
	if len(dangling) > 0 {
		sort.Strings(dangling)
		return fmt.Errorf("circuit %s: dangling nodes (single connection): %v", c.name, dangling)
	}
	root := find(0)
	var floating []string
	for n := range c.nodeSet {
		if k, ok := id[n]; !ok || find(k) != root {
			floating = append(floating, n)
		}
	}
	if len(floating) > 0 {
		sort.Strings(floating)
		return fmt.Errorf("circuit %s: nodes not connected to ground: %v", c.name, floating)
	}
	return nil
}

// Summary returns a human-readable one-line-per-element description.
func (c *Circuit) Summary() string {
	out := fmt.Sprintf("circuit %s: %d elements, %d nodes\n", c.name, len(c.elements), c.NumNodes())
	for _, e := range c.elements {
		if v, ok := e.(Valued); ok {
			out += fmt.Sprintf("  %-8s %v value=%g\n", e.Name(), e.Nodes(), v.Value())
		} else {
			out += fmt.Sprintf("  %-8s %v\n", e.Name(), e.Nodes())
		}
	}
	return out
}
