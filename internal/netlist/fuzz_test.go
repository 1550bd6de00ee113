package netlist_test

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"strconv"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/circuits"
	"repro/internal/netlist"
)

// serializeOracle is the fmt-based Serialize the strings.Builder writer
// replaced. Serialize must reproduce it byte for byte: the text feeds
// artifact checksums.
func serializeOracle(c *circuit.Circuit) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", c.Name())
	for _, e := range c.Elements() {
		switch el := e.(type) {
		case *circuit.Resistor:
			fmt.Fprintf(&b, "%s %s %s %s\n", el.Name(), el.Nodes()[0], el.Nodes()[1], netlist.FormatValue(el.Ohms))
		case *circuit.Capacitor:
			fmt.Fprintf(&b, "%s %s %s %s\n", el.Name(), el.Nodes()[0], el.Nodes()[1], netlist.FormatValue(el.Farads))
		case *circuit.Inductor:
			fmt.Fprintf(&b, "%s %s %s %s\n", el.Name(), el.Nodes()[0], el.Nodes()[1], netlist.FormatValue(el.Henries))
		case *circuit.VSource:
			mag, ph := cmplx.Polar(el.Amplitude)
			fmt.Fprintf(&b, "%s %s %s %s %g\n", el.Name(), el.Nodes()[0], el.Nodes()[1], netlist.FormatValue(mag), ph*180/math.Pi)
		case *circuit.ISource:
			mag, ph := cmplx.Polar(el.Amplitude)
			fmt.Fprintf(&b, "%s %s %s %s %g\n", el.Name(), el.Nodes()[0], el.Nodes()[1], netlist.FormatValue(mag), ph*180/math.Pi)
		case *circuit.VCVS:
			fmt.Fprintf(&b, "%s %s %s %s %s %g\n", el.Name(), el.OutP, el.OutN, el.CtlP, el.CtlN, el.Gain)
		case *circuit.VCCS:
			fmt.Fprintf(&b, "%s %s %s %s %s %g\n", el.Name(), el.OutP, el.OutN, el.CtlP, el.CtlN, el.Gm)
		case *circuit.CCVS:
			fmt.Fprintf(&b, "%s %s %s %s %g\n", el.Name(), el.OutP, el.OutN, el.Control, el.R)
		case *circuit.CCCS:
			fmt.Fprintf(&b, "%s %s %s %s %g\n", el.Name(), el.OutP, el.OutN, el.Control, el.Gain)
		case *circuit.IdealOpAmp:
			fmt.Fprintf(&b, "%s %s %s %s\n", el.Name(), el.InP, el.InN, el.Out)
		default:
			return "", fmt.Errorf("netlist: cannot serialize element %s of type %T", e.Name(), e)
		}
	}
	b.WriteString(".end\n")
	return b.String(), nil
}

// checkSerialize requires Serialize to equal the fmt oracle on c.
func checkSerialize(t *testing.T, c *circuit.Circuit) string {
	t.Helper()
	got, gerr := netlist.Serialize(c)
	want, werr := serializeOracle(c)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) || got != want {
		t.Fatalf("%s: Serialize differs from the fmt oracle:\n--- got (%v)\n%s--- want (%v)\n%s", c.Name(), gerr, got, werr, want)
	}
	return got
}

// TestSerializeMatchesFmtOracle pins Serialize to the fmt oracle on
// every built-in and scaling CUT, and on every element kind with
// negative, signed-zero, infinite and NaN numbers in the %g fields.
func TestSerializeMatchesFmtOracle(t *testing.T) {
	for _, cut := range append(circuits.All(), circuits.Scaling()...) {
		checkSerialize(t, cut.Circuit)
	}
	c := circuit.New("every kind")
	c.MustAdd(circuit.NewVSource("V1", "in", "0", cmplx.Rect(1.5, -2.1)))
	c.MustAdd(circuit.NewISource("I1", "in", "0", complex(math.Copysign(0, -1), 0)))
	c.MustAdd(circuit.NewResistor("R1", "in", "a", 4.7e3))
	c.MustAdd(circuit.NewCapacitor("C1", "a", "0", 2.2e-9))
	c.MustAdd(circuit.NewInductor("L1", "a", "b", 1e-15))
	c.MustAdd(circuit.NewVCVS("E1", "b", "0", "a", "0", math.Inf(1)))
	c.MustAdd(circuit.NewVCCS("G1", "b", "0", "a", "0", -1e-300))
	c.MustAdd(circuit.NewCCVS("H1", "c", "0", "V1", math.NaN()))
	c.MustAdd(circuit.NewCCCS("F1", "c", "0", "V1", math.Inf(-1)))
	c.MustAdd(circuit.NewIdealOpAmp("U1", "0", "c", "b"))
	checkSerialize(t, c)
}

// TestSerializeRoundTripsExpandedSubckts pins what Serialize writes for
// an expanded subcircuit: elements named "X1.R1" parse back as the same
// resistor, not as an instance of an undefined subcircuit "1k".
func TestSerializeRoundTripsExpandedSubckts(t *testing.T) {
	for _, text := range netlist.SubcktSeeds() {
		c, err := netlist.Parse(text)
		if err != nil {
			continue
		}
		out, err := netlist.Serialize(c)
		if err != nil {
			t.Fatal(err)
		}
		back, err := netlist.Parse(out)
		if err != nil {
			t.Fatalf("re-parse: %v\n%s", err, out)
		}
		if got, want := back.ElementNames(), c.ElementNames(); strings.Join(got, " ") != strings.Join(want, " ") {
			t.Fatalf("elements %v, want %v", got, want)
		}
		for i, e := range c.Elements() {
			if fmt.Sprintf("%T%v", e, e.Nodes()) != fmt.Sprintf("%T%v", back.Elements()[i], back.Elements()[i].Nodes()) {
				t.Fatalf("%s: %T%v parsed back as %T%v", e.Name(), e, e.Nodes(), back.Elements()[i], back.Elements()[i].Nodes())
			}
		}
	}
}

// FuzzNetlistRoundTrip feeds arbitrary text to Parse. It must not
// panic; when it accepts, Serialize must equal the fmt oracle, and
// Serialize → Parse → Serialize must be a fixed point. The one allowed
// difference is the polar form of a phased source: Parse stores
// cmplx.Rect(mag, phase) and Serialize prints cmplx.Polar of it, which
// is not an exact inverse, so magnitude and phase may move in their
// last ulps.
func FuzzNetlistRoundTrip(f *testing.F) {
	for _, cut := range circuits.All() {
		text, err := netlist.Serialize(cut.Circuit)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(text)
	}
	for _, text := range netlist.SubcktSeeds() {
		f.Add(text)
	}
	f.Fuzz(func(t *testing.T, text string) {
		c, err := netlist.Parse(text)
		if err != nil {
			return
		}
		first := checkSerialize(t, c)
		back, err := netlist.Parse(first)
		if err != nil {
			t.Fatalf("serialized netlist does not parse: %v\n%s", err, first)
		}
		second := checkSerialize(t, back)
		if err := sameNetlist(first, second); err != nil {
			t.Fatalf("Serialize → Parse → Serialize is not a fixed point: %v\n--- first\n%s--- second\n%s", err, first, second)
		}
	})
}

// sameNetlist compares two serialized netlists line by line: equal
// bytes, except the magnitude and phase of V and I cards, which must
// agree to 1e-12 relative and 1e-9 degrees.
func sameNetlist(a, b string) error {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	if len(la) != len(lb) {
		return fmt.Errorf("%d lines vs %d", len(la), len(lb))
	}
	for i := range la {
		if la[i] == lb[i] {
			continue
		}
		fa, fb := strings.Fields(la[i]), strings.Fields(lb[i])
		if i == 0 || len(fa) != 5 || len(fb) != 5 || strings.Join(fa[:3], " ") != strings.Join(fb[:3], " ") {
			return fmt.Errorf("line %d: %q vs %q", i+1, la[i], lb[i])
		}
		if kind := sourceKind(fa[0]); kind != 'v' && kind != 'i' {
			return fmt.Errorf("line %d: %q vs %q", i+1, la[i], lb[i])
		}
		ma, err1 := netlist.ParseValue(fa[3])
		mb, err2 := netlist.ParseValue(fb[3])
		pa, err3 := strconv.ParseFloat(fa[4], 64)
		pb, err4 := strconv.ParseFloat(fb[4], 64)
		if err := errors.Join(err1, err2, err3, err4); err != nil {
			return fmt.Errorf("line %d: %v", i+1, err)
		}
		dp := math.Mod(math.Abs(pa-pb), 360)
		if math.Abs(ma-mb) > 1e-12*math.Max(math.Abs(ma), math.Abs(mb)) || math.Min(dp, 360-dp) > 1e-9 {
			return fmt.Errorf("line %d: source %q vs %q", i+1, la[i], lb[i])
		}
	}
	return nil
}

// sourceKind is the lower-case designator of an element name: its first
// letter, or the first letter after the last dot of an expanded
// subcircuit element's X name.
func sourceKind(name string) byte {
	if i := strings.LastIndexByte(name, '.'); (name[0] == 'x' || name[0] == 'X') && i >= 0 && i+1 < len(name) {
		name = name[i+1:]
	}
	return name[0] | 0x20
}
