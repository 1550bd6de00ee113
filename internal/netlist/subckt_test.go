package netlist

import (
	"fmt"
	"math/cmplx"
	"strings"
	"testing"

	"repro/internal/analysis"
)

const subcktNetlist = `divider library
.subckt half in out
R1 in out 1k
R2 out 0 1k
.ends
V1 src 0 1
Xa src mid half
Xb mid tap half
RL tap 0 1meg
.end
`

const subcktRCBlock = `t
.subckt rcblock a b
R1 a m 1k
C1 m b 1u
.ends
V1 in 0 1
X1 in out rcblock
RL out 0 1k
`

const subcktGroundBlock = `t
.subckt gblock a
R1 a 0 1k
.ends
V1 in 0 1
X1 in gblock
`

const subcktNested = `t
.subckt unit a b
R1 a b 1k
.ends
.subckt pair a b
X1 a m unit
X2 m b unit
.ends
V1 in 0 1
Xtop in out pair
RL out 0 1k
`

const subcktOpAmpLibrary = `t
.subckt inv2 in out
Ri in sum 1k
Rf sum out 2k
U1 0 sum out
.ends
.subckt inv3 in out
Ri in sum 1k
Rf sum out 3k
U1 0 sum out
.ends
V1 in 0 1
X1 in a inv2
X2 a out inv3
RL out 0 1k
`

const subcktCycle = `t
.subckt loop a b
X1 a b loop
.ends
V1 in 0 1
X1 in out loop
RL out 0 1
`

// subcktErrorCases are netlists Parse must reject.
var subcktErrorCases = map[string]string{
	"nested defs": `t
.subckt a x
.subckt b y
.ends
.ends
R1 q 0 1
V1 q 0 1
`,
	"missing ends": `t
.subckt a x
R1 x 0 1
V1 q 0 1
Rq q 0 1
`,
	"dup subckt": `t
.subckt a x
R1 x 0 1
.ends
.subckt a y
R1 y 0 1
.ends
V1 q 0 1
Rq q 0 1
`,
	"unknown subckt": `t
V1 q 0 1
X1 q nothere
Rq q 0 1
`,
	"port mismatch": `t
.subckt a x y
R1 x y 1
.ends
V1 q 0 1
X1 q a
Rq q 0 1
`,
	"short subckt header": `t
.subckt a
.ends
V1 q 0 1
Rq q 0 1
`,
	"short X card": `t
.subckt a x
R1 x 0 1
.ends
V1 q 0 1
X1 a
Rq q 0 1
`,
}

func TestSubcktExpansion(t *testing.T) {
	c, err := Parse(subcktNetlist)
	if err != nil {
		t.Fatal(err)
	}
	// Two instances × 2 resistors + V1 + RL = 6 elements.
	if got := len(c.Elements()); got != 6 {
		t.Fatalf("elements = %d, want 6: %v", got, c.ElementNames())
	}
	for _, name := range []string{"Xa.R1", "Xa.R2", "Xb.R1", "Xb.R2"} {
		if _, ok := c.Element(name); !ok {
			t.Fatalf("missing %s in %v", name, c.ElementNames())
		}
	}
	ac, err := analysis.NewAC(c)
	if err != nil {
		t.Fatal(err)
	}
	h, err := ac.Transfer("V1", "tap", 1)
	if err != nil {
		t.Fatal(err)
	}
	// Each stage halves under light load... second stage loads the
	// first: H = (R2∥(R1+R2)) chain. Compute expected:
	// stage2 input impedance = R1+R2∥RL ≈ 2k. stage1: out node sees
	// R2 ∥ 2k = 667; H1 = 667/1667 = 0.4; H2 = (1k∥1meg)/(1k + 1k∥1meg) ≈ 0.4998.
	want := 0.4 * (999.0 / 1999.0)
	if cmplx.Abs(h-complex(want, 0)) > 1e-3 {
		t.Fatalf("H = %v, want about %v", h, want)
	}
}

func TestSubcktInternalNodesPrefixed(t *testing.T) {
	nl := subcktRCBlock
	c, err := Parse(nl)
	if err != nil {
		t.Fatal(err)
	}
	if !c.HasNode("X1.m") {
		t.Fatalf("internal node not prefixed: %v", c.Nodes())
	}
}

func TestSubcktGroundNotMapped(t *testing.T) {
	nl := subcktGroundBlock
	c, err := Parse(nl)
	if err != nil {
		t.Fatal(err)
	}
	if c.HasNode("X1.0") {
		t.Fatal("ground was instance-prefixed")
	}
}

func TestNestedSubcktInstances(t *testing.T) {
	nl := subcktNested
	c, err := Parse(nl)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"Xtop.X1.R1", "Xtop.X2.R1"} {
		if _, ok := c.Element(name); !ok {
			t.Fatalf("missing %s in %v", name, c.ElementNames())
		}
	}
	ac, err := analysis.NewAC(c)
	if err != nil {
		t.Fatal(err)
	}
	h, err := ac.Transfer("V1", "out", 1)
	if err != nil {
		t.Fatal(err)
	}
	// 2k series into 1k load → 1/3.
	if cmplx.Abs(h-complex(1.0/3, 0)) > 1e-9 {
		t.Fatalf("H = %v, want 1/3", h)
	}
}

func TestSubcktOpAmpLibrary(t *testing.T) {
	// A realistic use: an inverting-amplifier subcircuit around an ideal
	// opamp, instantiated twice for gain (-2)·(-3) = 6.
	nl := subcktOpAmpLibrary
	c, err := Parse(nl)
	if err != nil {
		t.Fatal(err)
	}
	ac, err := analysis.NewAC(c)
	if err != nil {
		t.Fatal(err)
	}
	h, err := ac.Transfer("V1", "out", 10)
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(h-6) > 1e-9 {
		t.Fatalf("H = %v, want 6", h)
	}
}

func TestSubcktErrors(t *testing.T) {
	for name, nl := range subcktErrorCases {
		if _, err := Parse(nl); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestSubcktCycleDetected(t *testing.T) {
	nl := subcktCycle
	_, err := Parse(nl)
	if err == nil || !strings.Contains(err.Error(), "nesting") {
		t.Fatalf("err = %v, want nesting complaint", err)
	}
}

func TestEndsVsEndDistinction(t *testing.T) {
	// ".end" terminates the netlist; ".ends" only closes a subcircuit.
	nl := `t
.subckt a x
R1 x 0 1
.ends
V1 q 0 1
X1 q a
.end
R9 zz 0 1
`
	c, err := Parse(nl)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Element("R9"); ok {
		t.Fatal("cards after .end parsed")
	}
	if _, ok := c.Element("X1.R1"); !ok {
		t.Fatal("subckt instance missing")
	}
}

// TestSubcktExpansionBounded pins the expansion budget: eleven levels of
// three instances each would expand to 3^11 resistors, and Parse must
// refuse them with an error instead of building them.
func TestSubcktExpansionBounded(t *testing.T) {
	var b strings.Builder
	b.WriteString("t\n.subckt s0 a b\nR1 a b 1k\n.ends\n")
	for l := 1; l <= 11; l++ {
		fmt.Fprintf(&b, ".subckt s%d a b\nX1 a b s%d\nX2 a b s%d\nX3 a b s%d\n.ends\n", l, l-1, l-1, l-1)
	}
	b.WriteString("V1 in 0 1\nXtop in 0 s11\n")
	_, err := Parse(b.String())
	if err == nil || !strings.Contains(err.Error(), "expansion exceeds") {
		t.Fatalf("err = %v, want expansion bound", err)
	}
}
