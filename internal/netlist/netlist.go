// Package netlist parses and serializes a SPICE-like netlist dialect
// covering the element set of the circuit package. It lets the CLI tools
// accept external circuits under test instead of only the built-in
// benchmarks.
//
// Supported cards (one per line, case-insensitive designator prefix):
//
//	R<name> <n+> <n-> <value>              resistor (ohms)
//	C<name> <n+> <n-> <value>              capacitor (farads)
//	L<name> <n+> <n-> <value>              inductor (henries)
//	V<name> <n+> <n-> <mag> [phase_deg]    AC voltage source
//	I<name> <n+> <n-> <mag> [phase_deg]    AC current source
//	E<name> <o+> <o-> <c+> <c-> <gain>     VCVS
//	G<name> <o+> <o-> <c+> <c-> <gm>       VCCS
//	H<name> <o+> <o-> <vname> <r>          CCVS (controlled by V element)
//	F<name> <o+> <o-> <vname> <gain>       CCCS
//	O<name> <in+> <in-> <out>              ideal opamp ("U" prefix accepted)
//	X<name> <node...> <subckt>             subcircuit instance
//	.subckt <name> <port...> / .ends       subcircuit definition
//
// Values accept engineering suffixes (f p n u m k meg g t) and scientific
// notation. '*' or ';' start comments; a leading '+' continues the
// previous line; a first line that is not a card is treated as the title
// (SPICE convention); ".end" stops parsing and other dot-cards are
// ignored.
package netlist

import (
	"fmt"
	"math"
	"math/cmplx"
	"strconv"
	"strings"

	"repro/internal/circuit"
)

// ParseError reports a netlist syntax error with its source location:
// the 1-based physical line number and the offending card text. Every
// error Parse returns is (or wraps) a ParseError, so callers can recover
// the location with errors.As.
type ParseError struct {
	// Line is the 1-based physical source line the error points at (for
	// a continuation card, the line the card started on).
	Line int
	// Card is the offending card text ("" when no card applies, e.g. an
	// empty netlist).
	Card string
	// Msg describes the problem.
	Msg string
}

func (e *ParseError) Error() string {
	if e.Card == "" {
		return fmt.Sprintf("netlist: line %d: %s", e.Line, e.Msg)
	}
	return fmt.Sprintf("netlist: line %d: %s (%q)", e.Line, e.Msg, e.Card)
}

func errAt(line int, card, format string, args ...any) error {
	return &ParseError{Line: line, Card: card, Msg: fmt.Sprintf(format, args...)}
}

// ParseValue converts a SPICE number with optional engineering suffix.
// Examples: "4.7k" → 4700, "100n" → 1e-7, "2meg" → 2e6, "1e-6" → 1e-6.
func ParseValue(s string) (float64, error) {
	t := strings.ToLower(strings.TrimSpace(s))
	if t == "" {
		return 0, fmt.Errorf("empty value")
	}
	mult := 1.0
	switch {
	case strings.HasSuffix(t, "meg"):
		mult, t = 1e6, strings.TrimSuffix(t, "meg")
	case strings.HasSuffix(t, "f"):
		mult, t = 1e-15, strings.TrimSuffix(t, "f")
	case strings.HasSuffix(t, "p"):
		mult, t = 1e-12, strings.TrimSuffix(t, "p")
	case strings.HasSuffix(t, "n"):
		mult, t = 1e-9, strings.TrimSuffix(t, "n")
	case strings.HasSuffix(t, "u"):
		mult, t = 1e-6, strings.TrimSuffix(t, "u")
	case strings.HasSuffix(t, "m"):
		mult, t = 1e-3, strings.TrimSuffix(t, "m")
	case strings.HasSuffix(t, "k"):
		mult, t = 1e3, strings.TrimSuffix(t, "k")
	case strings.HasSuffix(t, "g"):
		mult, t = 1e9, strings.TrimSuffix(t, "g")
	case strings.HasSuffix(t, "t"):
		mult, t = 1e12, strings.TrimSuffix(t, "t")
	}
	v, err := strconv.ParseFloat(t, 64)
	// A component value must be finite: "inf", or "nan" under a suffix
	// ("nanm"), would otherwise parse into a value Serialize writes back
	// as text no parser accepts.
	if err != nil || math.IsInf(v*mult, 0) || math.IsNaN(v) {
		return 0, fmt.Errorf("bad number %q", s)
	}
	return v * mult, nil
}

// FormatValue renders a value with an engineering suffix when it is
// exactly representable, otherwise in %g form.
func FormatValue(v float64) string {
	type unit struct {
		mult   float64
		suffix string
	}
	units := []unit{
		{1e12, "t"}, {1e9, "g"}, {1e6, "meg"}, {1e3, "k"},
		{1, ""}, {1e-3, "m"}, {1e-6, "u"}, {1e-9, "n"}, {1e-12, "p"},
	}
	av := math.Abs(v)
	if av == 0 {
		return "0"
	}
	for _, u := range units {
		if av >= u.mult && av < u.mult*1000 {
			scaled := v / u.mult
			return strconv.FormatFloat(scaled, 'g', -1, 64) + u.suffix
		}
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Parse reads a netlist and builds a circuit named after the title line
// (or "netlist" if the input starts directly with cards).
func Parse(input string) (*circuit.Circuit, error) {
	physical := strings.Split(strings.ReplaceAll(input, "\r\n", "\n"), "\n")

	// Join continuation lines, remembering the source line of each card.
	var logical []srcLine
	for i, raw := range physical {
		line := stripComment(raw)
		trimmed := strings.TrimSpace(line)
		if trimmed == "" {
			continue
		}
		if strings.HasPrefix(trimmed, "+") {
			if len(logical) == 0 {
				return nil, errAt(i+1, trimmed, "continuation with no previous card")
			}
			logical[len(logical)-1].text += " " + strings.TrimSpace(trimmed[1:])
			continue
		}
		logical = append(logical, srcLine{text: trimmed, line: i + 1})
	}
	if len(logical) == 0 {
		return nil, &ParseError{Line: 1, Msg: "empty input: no cards found"}
	}

	title := "netlist"
	start := 0
	if !isCard(logical[0].text) {
		title = logical[0].text
		start = 1
	}
	// Honour .end before anything else ('.ends' terminates subcircuits,
	// not the netlist, so match the whole token).
	body := logical[start:]
	for i, sl := range body {
		token := strings.ToLower(strings.Fields(sl.text)[0])
		if token == ".end" {
			body = body[:i]
			break
		}
	}

	top, defs, err := extractSubckts(body)
	if err != nil {
		return nil, err
	}

	c := circuit.New(title)
	for _, sl := range top {
		card := sl.text
		lower := strings.ToLower(card)
		if strings.HasPrefix(lower, "x") && !isExpandedElement(card, defs) {
			if err := expandInstance(c, sl.line, card, defs, 0); err != nil {
				return nil, err
			}
			continue
		}
		if strings.HasPrefix(lower, ".") {
			continue // analysis directives are the caller's business
		}
		el, err := parseCard(sl.line, card)
		if err != nil {
			return nil, err
		}
		if err := c.Add(el); err != nil {
			return nil, errAt(sl.line, card, "%v", err)
		}
	}
	if len(c.Elements()) == 0 {
		// Point at the first (title or directive) line: everything after
		// it was consumed without yielding an element.
		return nil, &ParseError{Line: logical[0].line, Card: logical[0].text, Msg: "netlist has no elements"}
	}
	return c, nil
}

func stripComment(line string) string {
	if i := strings.IndexAny(line, ";"); i >= 0 {
		line = line[:i]
	}
	if t := strings.TrimSpace(line); strings.HasPrefix(t, "*") {
		return ""
	}
	return line
}

// isCard reports whether a line parses as an element card or dot
// directive; anything else in first position is the SPICE title line.
func isCard(line string) bool {
	if line == "" {
		return false
	}
	if strings.HasPrefix(line, ".") {
		return true
	}
	switch strings.ToLower(line[:1]) {
	case "r", "c", "l", "v", "i", "e", "g", "h", "f", "o", "u":
		_, err := parseCard(0, line)
		return err == nil
	case "x":
		// X cards reference a subcircuit resolved later; a structural
		// check suffices for title detection.
		return len(strings.Fields(line)) >= 3
	}
	return false
}

// elementKind is the lower-case designator that selects a card's
// element type: the name's first letter or, for a dotted X name — an
// element Serialize wrote from an expanded subcircuit instance, such as
// "X1.R1" or "Xtop.X2.C1" — the first letter after its last dot.
func elementKind(name string) string {
	kind := strings.ToLower(name[:1])
	if i := strings.LastIndexByte(name, '.'); kind == "x" && i >= 0 && i+1 < len(name) {
		kind = strings.ToLower(name[i+1 : i+2])
	}
	return kind
}

// isExpandedElement reports whether a top-level X card is an element of
// an expanded subcircuit instance, as Serialize writes them: its dotted
// name carries an element designator after the last dot, and its last
// field names no defined subcircuit. Every other X card is an instance.
func isExpandedElement(card string, defs map[string]*subckt) bool {
	fields := strings.Fields(card)
	if len(fields) < 2 {
		return false
	}
	switch elementKind(fields[0]) {
	case "r", "c", "l", "v", "i", "e", "g", "h", "f", "o", "u":
		_, isSubckt := defs[strings.ToLower(fields[len(fields)-1])]
		return !isSubckt
	}
	return false
}

func parseCard(line int, card string) (circuit.Element, error) {
	fields := strings.Fields(card)
	name := fields[0]
	kind := elementKind(name)
	args := fields[1:]
	need := func(n int) error {
		if len(args) < n {
			return errAt(line, card, "element %s needs %d fields, got %d", name, n, len(args))
		}
		return nil
	}
	val := func(s string) (float64, error) {
		v, err := ParseValue(s)
		if err != nil {
			return 0, errAt(line, card, "%v", err)
		}
		return v, nil
	}
	switch kind {
	case "r", "c", "l":
		if err := need(3); err != nil {
			return nil, err
		}
		v, err := val(args[2])
		if err != nil {
			return nil, err
		}
		switch kind {
		case "r":
			return circuit.NewResistor(name, args[0], args[1], v), nil
		case "c":
			return circuit.NewCapacitor(name, args[0], args[1], v), nil
		default:
			return circuit.NewInductor(name, args[0], args[1], v), nil
		}
	case "v", "i":
		if err := need(3); err != nil {
			return nil, err
		}
		mag, err := val(args[2])
		if err != nil {
			return nil, err
		}
		amp := complex(mag, 0)
		if len(args) >= 4 {
			deg, err := val(args[3])
			if err != nil {
				return nil, err
			}
			rad := deg * math.Pi / 180
			if math.IsInf(rad, 0) {
				return nil, errAt(line, card, "phase %s out of range", args[3])
			}
			amp = cmplx.Rect(mag, rad)
		}
		if kind == "v" {
			return circuit.NewVSource(name, args[0], args[1], amp), nil
		}
		return circuit.NewISource(name, args[0], args[1], amp), nil
	case "e", "g":
		if err := need(5); err != nil {
			return nil, err
		}
		v, err := val(args[4])
		if err != nil {
			return nil, err
		}
		if kind == "e" {
			return circuit.NewVCVS(name, args[0], args[1], args[2], args[3], v), nil
		}
		return circuit.NewVCCS(name, args[0], args[1], args[2], args[3], v), nil
	case "h", "f":
		if err := need(4); err != nil {
			return nil, err
		}
		v, err := val(args[3])
		if err != nil {
			return nil, err
		}
		if kind == "h" {
			return circuit.NewCCVS(name, args[0], args[1], args[2], v), nil
		}
		return circuit.NewCCCS(name, args[0], args[1], args[2], v), nil
	case "o", "u":
		if err := need(3); err != nil {
			return nil, err
		}
		return circuit.NewIdealOpAmp(name, args[0], args[1], args[2]), nil
	default:
		return nil, errAt(line, card, "unknown element kind %q", name[:1])
	}
}

// Serialize renders a circuit back into netlist text. Round-tripping
// through Parse yields an equivalent circuit. The text feeds artifact
// checksums, so its bytes are a compatibility surface: values print
// through FormatValue, phases and controlled-source gains as
// strconv's shortest 'g' form (what fmt's %g prints).
func Serialize(c *circuit.Circuit) (string, error) {
	var b strings.Builder
	b.Grow(32 * (len(c.Elements()) + 2))
	b.WriteString(c.Name())
	b.WriteByte('\n')
	var num [32]byte
	// card writes one line: the fields space-separated, then the
	// %g-formatted trailing numbers.
	card := func(fields []string, gs ...float64) {
		for i, f := range fields {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(f)
		}
		for _, g := range gs {
			b.WriteByte(' ')
			b.Write(strconv.AppendFloat(num[:0], g, 'g', -1, 64))
		}
		b.WriteByte('\n')
	}
	for _, e := range c.Elements() {
		switch el := e.(type) {
		case *circuit.Resistor:
			nodes := el.Nodes()
			card([]string{el.Name(), nodes[0], nodes[1], FormatValue(el.Ohms)})
		case *circuit.Capacitor:
			nodes := el.Nodes()
			card([]string{el.Name(), nodes[0], nodes[1], FormatValue(el.Farads)})
		case *circuit.Inductor:
			nodes := el.Nodes()
			card([]string{el.Name(), nodes[0], nodes[1], FormatValue(el.Henries)})
		case *circuit.VSource:
			nodes := el.Nodes()
			mag, ph := cmplx.Polar(el.Amplitude)
			card([]string{el.Name(), nodes[0], nodes[1], FormatValue(mag)}, ph*180/math.Pi)
		case *circuit.ISource:
			nodes := el.Nodes()
			mag, ph := cmplx.Polar(el.Amplitude)
			card([]string{el.Name(), nodes[0], nodes[1], FormatValue(mag)}, ph*180/math.Pi)
		case *circuit.VCVS:
			card([]string{el.Name(), el.OutP, el.OutN, el.CtlP, el.CtlN}, el.Gain)
		case *circuit.VCCS:
			card([]string{el.Name(), el.OutP, el.OutN, el.CtlP, el.CtlN}, el.Gm)
		case *circuit.CCVS:
			card([]string{el.Name(), el.OutP, el.OutN, el.Control}, el.R)
		case *circuit.CCCS:
			card([]string{el.Name(), el.OutP, el.OutN, el.Control}, el.Gain)
		case *circuit.IdealOpAmp:
			card([]string{el.Name(), el.InP, el.InN, el.Out})
		default:
			return "", fmt.Errorf("netlist: cannot serialize element %s of type %T", e.Name(), e)
		}
	}
	b.WriteString(".end\n")
	return b.String(), nil
}
