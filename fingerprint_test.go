package repro

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/fault"
	"repro/internal/netlist"
)

// fingerprintOracle is the fmt.Sprintf fingerprint the strings.Builder
// writer replaced; every saved artifact's checksum depends on its bytes.
func fingerprintOracle(text string, cut CUT, u *fault.Universe, pairs []fault.Multi) string {
	fp := fmt.Sprintf(
		"%s\nsource=%s\noutput=%s\ncomponents=%v\ndeviations=%v\n",
		text, cut.Source, cut.Output, u.Components, u.Deviations)
	if pairs != nil {
		fp += fmt.Sprintf("doublefaults=%d\n", len(pairs))
	}
	return fp
}

// TestFingerprintMatchesFmt pins the artifact fingerprint to the fmt
// layout on the paper's universe and on deviation grids whose %g forms
// use exponents, long mantissas and signed values, with and without a
// double-fault universe.
func TestFingerprintMatchesFmt(t *testing.T) {
	cut := PaperCUT()
	text, err := netlist.Serialize(cut.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	grids := [][]float64{
		fault.PaperDeviations(),
		{-0.5, -1.0 / 3, -1e-7, 0.1 + 0.2, 2.5e-5, 0.75, 1e21},
		{math.SmallestNonzeroFloat64, 4.9},
	}
	for _, devs := range grids {
		u, err := fault.NewUniverse(cut.Passives, devs)
		if err != nil {
			t.Fatal(err)
		}
		for _, pairs := range [][]fault.Multi{nil, {}, make([]fault.Multi, 1344)} {
			if got, want := fingerprint(text, cut, u, pairs), fingerprintOracle(text, cut, u, pairs); got != want {
				t.Fatalf("deviations %v, %d pairs:\n got %q\nwant %q", devs, len(pairs), got[len(text):], want[len(text):])
			}
		}
	}
	u, err := fault.NewUniverse(nil, []float64{0.1})
	if err == nil {
		if got, want := fingerprint(text, cut, u, nil), fingerprintOracle(text, cut, u, nil); got != want {
			t.Fatalf("empty components: got %q want %q", got[len(text):], want[len(text):])
		}
	}
}
