package circuit_test

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/circuit"
	"repro/internal/circuits"
)

// validateOracle is the string-keyed Validate the union-find replaced:
// map touch counts, a map adjacency over chained element terminals and
// a depth-first search from ground.
func validateOracle(c *circuit.Circuit) error {
	isGround := func(n string) bool { return n == "0" || n == "gnd" || n == "GND" }
	canon := func(n string) string {
		if isGround(n) {
			return circuit.GroundName
		}
		return n
	}
	touch := make(map[string]int)
	groundSeen := false
	for _, e := range c.Elements() {
		for _, n := range e.Nodes() {
			if isGround(n) {
				groundSeen = true
				continue
			}
			touch[n]++
		}
	}
	if !groundSeen {
		return fmt.Errorf("circuit %s: no element connects to ground", c.Name())
	}
	var dangling []string
	for n, cnt := range touch {
		if cnt < 2 {
			dangling = append(dangling, n)
		}
	}
	if len(dangling) > 0 {
		sort.Strings(dangling)
		return fmt.Errorf("circuit %s: dangling nodes (single connection): %v", c.Name(), dangling)
	}
	adj := make(map[string][]string)
	addEdge := func(a, b string) {
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	for _, e := range c.Elements() {
		nodes := e.Nodes()
		for i := 0; i+1 < len(nodes); i++ {
			addEdge(canon(nodes[i]), canon(nodes[i+1]))
		}
		if len(nodes) > 2 {
			addEdge(canon(nodes[0]), canon(nodes[len(nodes)-1]))
		}
	}
	seen := map[string]bool{circuit.GroundName: true}
	stack := []string{circuit.GroundName}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, m := range adj[n] {
			if !seen[m] {
				seen[m] = true
				stack = append(stack, m)
			}
		}
	}
	var floating []string
	for _, n := range c.Nodes() {
		if !seen[n] {
			floating = append(floating, n)
		}
	}
	if len(floating) > 0 {
		sort.Strings(floating)
		return fmt.Errorf("circuit %s: nodes not connected to ground: %v", c.Name(), floating)
	}
	return nil
}

// validateMutations returns cut's circuit and broken variants of it:
// a dangling node, a floating island, islands hanging off a controlled
// source (linked only through its control terminals, or only through
// its named control branch), and a copy with no ground reference.
func validateMutations(cut circuits.CUT) map[string]*circuit.Circuit {
	base := cut.Circuit
	nodes := base.Nodes()
	anchor := nodes[len(nodes)-1]
	out := map[string]*circuit.Circuit{"as-built": base}

	c := base.Clone()
	c.MustAdd(circuit.NewResistor("Rdangle", anchor, "dangle", 1))
	out["dangling node"] = c

	c = base.Clone()
	c.MustAdd(circuit.NewResistor("Risl1", "isl_a", "isl_b", 1))
	c.MustAdd(circuit.NewCapacitor("Cisl1", "isl_a", "isl_b", 1))
	c.MustAdd(circuit.NewResistor("Risl2", "isl_b", "isl_c", 1))
	c.MustAdd(circuit.NewResistor("Risl3", "isl_c", "isl_a", 1))
	out["floating island"] = c

	c = base.Clone()
	c.MustAdd(circuit.NewVCVS("Eisl", "ctl_a", "ctl_b", anchor, circuit.GroundName, 2))
	c.MustAdd(circuit.NewResistor("Rctl", "ctl_a", "ctl_b", 1))
	out["VCVS control-linked island"] = c

	c = base.Clone()
	c.MustAdd(circuit.NewVCCS("Gisl", "ctl_a", "ctl_b", anchor, "gnd", 0.5))
	c.MustAdd(circuit.NewResistor("Rctl", "ctl_a", "ctl_b", 1))
	out["VCCS control-linked island"] = c

	c = base.Clone()
	c.MustAdd(circuit.NewCCCS("Fisl", "cc_a", "cc_b", cut.Source, 3))
	c.MustAdd(circuit.NewResistor("Rcc", "cc_a", "cc_b", 1))
	out["CCCS branch-linked island"] = c

	c = base.Clone()
	c.MustAdd(circuit.NewCCVS("Hisl", "cc_a", "cc_b", cut.Source, 3))
	c.MustAdd(circuit.NewResistor("Rcc", "cc_a", "cc_b", 1))
	c.MustAdd(circuit.NewResistor("Rdangle", anchor, "dangle", 1))
	out["CCVS island and a dangling node"] = c

	// No ground: every element is rebuilt between two fresh nodes, so
	// none of them references the reference node.
	c = circuit.New(base.Name())
	for i, e := range base.Elements() {
		a, b := fmt.Sprintf("u%d", i), fmt.Sprintf("u%d", (i+1)%len(base.Elements()))
		c.MustAdd(circuit.NewResistor(e.Name(), a, b, 1))
	}
	out["no ground reference"] = c
	return out
}

// TestValidateMatchesOracle pins Validate's union-find to the map-based
// oracle: the same error text, or nil for both, on every built-in and
// scaling CUT and on the broken variants of each.
func TestValidateMatchesOracle(t *testing.T) {
	cuts := append(circuits.All(), circuits.Scaling()...)
	for _, cut := range cuts {
		for what, c := range validateMutations(cut) {
			want, got := validateOracle(c), c.Validate()
			if fmt.Sprint(want) != fmt.Sprint(got) {
				t.Fatalf("%s, %s:\n got %v\nwant %v", cut.Circuit.Name(), what, got, want)
			}
			if what == "as-built" && got != nil {
				t.Fatalf("%s: built-in CUT fails validation: %v", cut.Circuit.Name(), got)
			}
			if what != "as-built" && what != "VCVS control-linked island" && what != "VCCS control-linked island" && got == nil {
				t.Fatalf("%s, %s: validation passed", cut.Circuit.Name(), what)
			}
		}
	}
}
