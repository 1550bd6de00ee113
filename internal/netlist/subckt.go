package netlist

import (
	"fmt"
	"strings"

	"repro/internal/circuit"
)

// subckt is a parsed .subckt definition: a named block of cards with
// formal port nodes.
type subckt struct {
	name  string
	ports []string
	cards []srcLine
	line  int
}

// srcLine pairs a logical card with its source line number.
type srcLine struct {
	text string
	line int
}

// maxSubcktDepth bounds recursive instantiation (and catches cycles).
const maxSubcktDepth = 16

// maxExpandedElements bounds the circuit subcircuit expansion may grow:
// within the depth bound, a few instances per level still multiply into
// billions of elements.
const maxExpandedElements = 1 << 17

// extractSubckts splits the logical lines into top-level cards and
// subcircuit definitions. Nested .subckt definitions are rejected for
// clarity (SPICE dialects differ here; flat libraries are the common
// case).
func extractSubckts(lines []srcLine) (top []srcLine, defs map[string]*subckt, err error) {
	defs = make(map[string]*subckt)
	var cur *subckt
	for _, sl := range lines {
		lower := strings.ToLower(sl.text)
		switch {
		case strings.HasPrefix(lower, ".subckt"):
			if cur != nil {
				return nil, nil, errAt(sl.line, sl.text, "nested .subckt inside %q", cur.name)
			}
			fields := strings.Fields(sl.text)
			if len(fields) < 3 {
				return nil, nil, errAt(sl.line, sl.text, ".subckt needs a name and at least one port")
			}
			name := strings.ToLower(fields[1])
			if _, dup := defs[name]; dup {
				return nil, nil, errAt(sl.line, sl.text, "duplicate subcircuit %q", name)
			}
			cur = &subckt{name: name, ports: fields[2:], line: sl.line}
		case strings.HasPrefix(lower, ".ends"):
			if cur == nil {
				return nil, nil, errAt(sl.line, sl.text, ".ends without .subckt")
			}
			defs[cur.name] = cur
			cur = nil
		default:
			if cur != nil {
				cur.cards = append(cur.cards, sl)
			} else {
				top = append(top, sl)
			}
		}
	}
	if cur != nil {
		return nil, nil, errAt(cur.line, ".subckt "+cur.name, "unterminated subcircuit (missing .ends)")
	}
	return top, defs, nil
}

// expandInstance elaborates an X card: it maps the subcircuit's ports to
// the instance's nodes, prefixes internal nodes and element names with
// the instance name, and recursively expands nested X cards.
func expandInstance(c *circuit.Circuit, line int, card string, defs map[string]*subckt, depth int) error {
	if depth > maxSubcktDepth {
		return errAt(line, card, "subcircuit nesting exceeds %d (cycle?)", maxSubcktDepth)
	}
	fields := strings.Fields(card)
	if len(fields) < 3 {
		return errAt(line, card, "X card needs nodes and a subcircuit name")
	}
	inst := fields[0]
	sub, ok := defs[strings.ToLower(fields[len(fields)-1])]
	if !ok {
		return errAt(line, card, "unknown subcircuit %q", fields[len(fields)-1])
	}
	actuals := fields[1 : len(fields)-1]
	if len(actuals) != len(sub.ports) {
		return errAt(line, card, "subcircuit %q has %d ports, instance gives %d", sub.name, len(sub.ports), len(actuals))
	}
	nodeMap := make(map[string]string, len(sub.ports))
	for i, formal := range sub.ports {
		nodeMap[formal] = actuals[i]
	}
	mapNode := func(n string) string {
		if isGround(n) {
			return circuit.GroundName
		}
		if mapped, ok := nodeMap[n]; ok {
			return mapped
		}
		return inst + "." + n
	}
	for _, sl := range sub.cards {
		kind := strings.ToLower(sl.text[:1])
		if kind == "x" {
			// Rewrite the nested instance's nodes, prefix its name, and
			// recurse.
			nf := strings.Fields(sl.text)
			if len(nf) < 3 {
				return errAt(sl.line, sl.text, "X card needs nodes and a subcircuit name")
			}
			rewritten := []string{inst + "." + nf[0]}
			for _, n := range nf[1 : len(nf)-1] {
				rewritten = append(rewritten, mapNode(n))
			}
			rewritten = append(rewritten, nf[len(nf)-1])
			if err := expandInstance(c, sl.line, strings.Join(rewritten, " "), defs, depth+1); err != nil {
				return err
			}
			continue
		}
		if len(c.Elements()) >= maxExpandedElements {
			return errAt(line, card, "subcircuit expansion exceeds %d elements", maxExpandedElements)
		}
		el, err := parseCard(sl.line, sl.text)
		if err != nil {
			return err
		}
		renamed, err := rewriteElement(el, inst, mapNode)
		if err != nil {
			return errAt(sl.line, sl.text, "%v", err)
		}
		if err := c.Add(renamed); err != nil {
			return errAt(sl.line, sl.text, "%v", err)
		}
	}
	return nil
}

// rewriteElement clones an element with prefixed name and mapped nodes.
func rewriteElement(e circuit.Element, inst string, mapNode func(string) string) (circuit.Element, error) {
	name := inst + "." + e.Name()
	switch el := e.(type) {
	case *circuit.Resistor:
		return circuit.NewResistor(name, mapNode(el.Nodes()[0]), mapNode(el.Nodes()[1]), el.Ohms), nil
	case *circuit.Capacitor:
		return circuit.NewCapacitor(name, mapNode(el.Nodes()[0]), mapNode(el.Nodes()[1]), el.Farads), nil
	case *circuit.Inductor:
		return circuit.NewInductor(name, mapNode(el.Nodes()[0]), mapNode(el.Nodes()[1]), el.Henries), nil
	case *circuit.VSource:
		return circuit.NewVSource(name, mapNode(el.Nodes()[0]), mapNode(el.Nodes()[1]), el.Amplitude), nil
	case *circuit.ISource:
		return circuit.NewISource(name, mapNode(el.Nodes()[0]), mapNode(el.Nodes()[1]), el.Amplitude), nil
	case *circuit.VCVS:
		return circuit.NewVCVS(name, mapNode(el.OutP), mapNode(el.OutN), mapNode(el.CtlP), mapNode(el.CtlN), el.Gain), nil
	case *circuit.VCCS:
		return circuit.NewVCCS(name, mapNode(el.OutP), mapNode(el.OutN), mapNode(el.CtlP), mapNode(el.CtlN), el.Gm), nil
	case *circuit.CCVS:
		return circuit.NewCCVS(name, mapNode(el.OutP), mapNode(el.OutN), inst+"."+el.Control, el.R), nil
	case *circuit.CCCS:
		return circuit.NewCCCS(name, mapNode(el.OutP), mapNode(el.OutN), inst+"."+el.Control, el.Gain), nil
	case *circuit.IdealOpAmp:
		return circuit.NewIdealOpAmp(name, mapNode(el.InP), mapNode(el.InN), mapNode(el.Out)), nil
	default:
		return nil, fmt.Errorf("cannot instantiate element %s of type %T inside a subcircuit", e.Name(), e)
	}
}

func isGround(n string) bool {
	return n == "0" || n == "gnd" || n == "GND"
}
