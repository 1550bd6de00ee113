package netlist_test

import (
	"errors"
	"math"
	"math/cmplx"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/circuit"
	"repro/internal/circuits"
	"repro/internal/netlist"
)

func TestParseValue(t *testing.T) {
	cases := map[string]float64{
		"4.7k":  4700,
		"100n":  1e-7,
		"2meg":  2e6,
		"1e-6":  1e-6,
		"0.5":   0.5,
		"75":    75,
		"1m":    1e-3,
		"10u":   1e-5,
		"3p":    3e-12,
		"2f":    2e-15,
		"1g":    1e9,
		"2t":    2e12,
		"-3.3k": -3300,
	}
	for in, want := range cases {
		got, err := netlist.ParseValue(in)
		if err != nil {
			t.Errorf("netlist.ParseValue(%q): %v", in, err)
			continue
		}
		if math.Abs(got-want) > 1e-9*math.Abs(want) {
			t.Errorf("netlist.ParseValue(%q) = %g, want %g", in, got, want)
		}
	}
	// Non-finite values are rejected however they are spelled.
	for _, bad := range []string{"", "abc", "1.2.3", "k", "inf", "-Infk", "nanm", "1e308k"} {
		if _, err := netlist.ParseValue(bad); err == nil {
			t.Errorf("netlist.ParseValue(%q) accepted", bad)
		}
	}
}

func TestFormatValueRoundTrip(t *testing.T) {
	for _, v := range []float64{4700, 1e-7, 2e6, 0.5, 75, 1e-3, 3e-12, 0, 1.5e15} {
		s := netlist.FormatValue(v)
		got, err := netlist.ParseValue(s)
		if err != nil {
			t.Fatalf("netlist.FormatValue(%g) = %q does not parse: %v", v, s, err)
		}
		if math.Abs(got-v) > 1e-12*math.Abs(v) {
			t.Fatalf("round trip %g -> %q -> %g", v, s, got)
		}
	}
}

const rcNetlist = `simple rc lowpass
* a comment line
V1 in 0 1
R1 in out 1k
C1 out 0 1u ; trailing comment
.ac dec 10 1 100k
.end
`

func TestParseRC(t *testing.T) {
	c, err := netlist.Parse(rcNetlist)
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "simple rc lowpass" {
		t.Fatalf("title = %q", c.Name())
	}
	if len(c.Elements()) != 3 {
		t.Fatalf("elements = %d, want 3", len(c.Elements()))
	}
	ac, err := analysis.NewAC(c)
	if err != nil {
		t.Fatal(err)
	}
	h, err := ac.Transfer("V1", "out", 1000)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 / (1 + complex(0, 1000*1e-3))
	if cmplx.Abs(h-want) > 1e-9 {
		t.Fatalf("H = %v, want %v", h, want)
	}
}

func TestParseNoTitle(t *testing.T) {
	c, err := netlist.Parse("V1 in 0 1\nR1 in 0 1k\n")
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "netlist" {
		t.Fatalf("name = %q, want default", c.Name())
	}
}

func TestParseContinuation(t *testing.T) {
	c, err := netlist.Parse("t\nE1 out 0\n+ in 0\n+ 5\nR1 out 0 1\nV1 in 0 1\nRi in 0 1meg\n")
	if err != nil {
		t.Fatal(err)
	}
	e, ok := c.Element("E1")
	if !ok {
		t.Fatal("E1 missing")
	}
	if e.(*circuit.VCVS).Gain != 5 {
		t.Fatalf("gain = %g", e.(*circuit.VCVS).Gain)
	}
}

func TestParseContinuationFirstLine(t *testing.T) {
	_, err := netlist.Parse("+ R1 a 0 1\n")
	var pe *netlist.ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want netlist.ParseError", err)
	}
	if pe.Line != 1 {
		t.Fatalf("line = %d, want 1", pe.Line)
	}
}

func TestParseVSourcePhase(t *testing.T) {
	c, err := netlist.Parse("t\nV1 in 0 2 90\nR1 in 0 1\n")
	if err != nil {
		t.Fatal(err)
	}
	v := mustV(t, c, "V1")
	if cmplx.Abs(v.Amplitude-2i) > 1e-12 {
		t.Fatalf("amplitude = %v, want 2i", v.Amplitude)
	}
}

func mustV(t *testing.T, c *circuit.Circuit, name string) *circuit.VSource {
	t.Helper()
	e, ok := c.Element(name)
	if !ok {
		t.Fatalf("%s missing", name)
	}
	return e.(*circuit.VSource)
}

func TestParseAllKinds(t *testing.T) {
	nl := `all kinds
V1 in 0 1
I1 in 0 1m
R1 in a 1k
L1 a b 10m
C1 b 0 1u
E1 c 0 a 0 2
Rc c 0 1k
G1 d 0 a 0 1m
Rd d 0 1k
H1 e 0 V1 100
Re e 0 1k
F1 f 0 V1 3
Rf f 0 1k
U1 a 0 g
Rg g a 1k
.end
`
	c, err := netlist.Parse(nl)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(c.Elements()); got != 15 {
		t.Fatalf("elements = %d, want 15", got)
	}
	u1, ok := c.Element("U1")
	if !ok {
		t.Fatal("U1 missing")
	}
	if _, ok := u1.(*circuit.IdealOpAmp); !ok {
		t.Fatal("U1 not parsed as opamp")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",                      // empty
		"t\n* only comments\n",  // no elements
		"t\nR1 a 0\n",           // missing value
		"t\nR1 a 0 xyz\n",       // bad value
		"t\nQ1 a 0 1\n",         // unknown kind
		"t\nE1 a 0 b 0\n",       // VCVS missing gain
		"t\nR1 a 0 1\nR1 b 0 1", // duplicate
	}
	for i, in := range cases {
		if _, err := netlist.Parse(in); err == nil {
			t.Errorf("case %d: bad netlist accepted", i)
		}
	}
}

func TestParseErrorLineNumbers(t *testing.T) {
	_, err := netlist.Parse("title\nV1 in 0 1\nR1 in 0 badvalue\n")
	var pe *netlist.ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want netlist.ParseError", err)
	}
	if pe.Line != 3 {
		t.Fatalf("line = %d, want 3", pe.Line)
	}
	if !strings.Contains(pe.Error(), "line 3") {
		t.Fatalf("message = %q", pe.Error())
	}
}

func TestSerializeRoundTripBenchmarks(t *testing.T) {
	// Every built-in benchmark must round-trip: serialize, reparse, and
	// produce the same transfer function.
	for _, cut := range circuits.All() {
		text, err := netlist.Serialize(cut.Circuit)
		if err != nil {
			t.Fatalf("%s: %v", cut.Circuit.Name(), err)
		}
		back, err := netlist.Parse(text)
		if err != nil {
			t.Fatalf("%s: reparse: %v\n%s", cut.Circuit.Name(), err, text)
		}
		ac1, err := analysis.NewAC(cut.Circuit)
		if err != nil {
			t.Fatal(err)
		}
		ac2, err := analysis.NewAC(back)
		if err != nil {
			t.Fatalf("%s: reparsed circuit does not assemble: %v", cut.Circuit.Name(), err)
		}
		for _, w := range []float64{cut.Omega0 / 3, cut.Omega0, cut.Omega0 * 3} {
			h1, err := ac1.Transfer(cut.Source, cut.Output, w)
			if err != nil {
				t.Fatal(err)
			}
			h2, err := ac2.Transfer(cut.Source, cut.Output, w)
			if err != nil {
				t.Fatal(err)
			}
			if cmplx.Abs(h1-h2) > 1e-9 {
				t.Fatalf("%s ω=%g: %v vs %v", cut.Circuit.Name(), w, h1, h2)
			}
		}
	}
}

func TestDotEndStopsParsing(t *testing.T) {
	c, err := netlist.Parse("t\nR1 a 0 1\nV1 a 0 1\n.end\nR2 b 0 1\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Element("R2"); ok {
		t.Fatal("cards after .end parsed")
	}
}

func TestBadNumberErrorCarriesLineAndCard(t *testing.T) {
	_, err := netlist.Parse("title\nR1 in out 4k7\nC1 out 0 100n\n")
	var pe *netlist.ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want netlist.ParseError", err)
	}
	if pe.Line != 2 {
		t.Fatalf("line = %d, want 2", pe.Line)
	}
	if !strings.Contains(pe.Card, "R1 in out 4k7") {
		t.Fatalf("card = %q, want the offending card text", pe.Card)
	}
	if !strings.Contains(pe.Msg, "bad number") {
		t.Fatalf("msg = %q", pe.Msg)
	}
}

func TestNoElementsErrorCarriesLine(t *testing.T) {
	_, err := netlist.Parse("just a title\n* a comment\n.op\n")
	var pe *netlist.ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want netlist.ParseError", err)
	}
	if pe.Line != 1 {
		t.Fatalf("line = %d, want 1 (the title line)", pe.Line)
	}
	if !strings.Contains(pe.Msg, "no elements") {
		t.Fatalf("msg = %q", pe.Msg)
	}
}

func TestEmptyInputIsParseError(t *testing.T) {
	_, err := netlist.Parse("  \n* nothing here\n")
	var pe *netlist.ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want netlist.ParseError", err)
	}
	if pe.Line != 1 || !strings.Contains(pe.Msg, "empty") {
		t.Fatalf("pe = %+v", pe)
	}
}

func TestSubcktBadValueCarriesDefinitionLine(t *testing.T) {
	nl := `title
.subckt div in out
R1 in out 1k
R2 out 0 bogus
.ends
X1 a b div
V1 a 0 1
`
	_, err := netlist.Parse(nl)
	var pe *netlist.ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want netlist.ParseError", err)
	}
	if pe.Line != 4 {
		t.Fatalf("line = %d, want 4 (inside the .subckt body)", pe.Line)
	}
}

func TestContinuationErrorPointsAtCardStart(t *testing.T) {
	nl := "title\nR1 in out\n+ nonsense\n"
	_, err := netlist.Parse(nl)
	var pe *netlist.ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want netlist.ParseError", err)
	}
	if pe.Line != 2 {
		t.Fatalf("line = %d, want 2 (the card's first physical line)", pe.Line)
	}
}
