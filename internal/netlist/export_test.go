package netlist

import "sort"

// SubcktSeeds returns the package's .subckt test netlists, the ones
// Parse accepts and the ones it rejects, for the external fuzz target.
func SubcktSeeds() []string {
	out := []string{subcktNetlist, subcktRCBlock, subcktGroundBlock, subcktNested, subcktOpAmpLibrary, subcktCycle}
	names := make([]string, 0, len(subcktErrorCases))
	for name := range subcktErrorCases {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		out = append(out, subcktErrorCases[name])
	}
	return out
}
