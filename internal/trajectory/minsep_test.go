package trajectory

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/circuits"
	"repro/internal/dictionary"
	"repro/internal/fault"
	"repro/internal/geometry"
)

// oracleDistToN is the polyline distance MinSeparation used before the
// one-pass PolylineN.Project: ProjectN on every segment, first segment
// seeding, strictly closer ones replacing it.
func oracleDistToN(pl geometry.PolylineN, p geometry.VecN) float64 {
	if len(pl) < 2 {
		return math.Inf(1)
	}
	best := geometry.ProjectN(p, pl[0], pl[1]).Dist
	for i := 1; i+1 < len(pl); i++ {
		if d := geometry.ProjectN(p, pl[i], pl[i+1]).Dist; d < best {
			best = d
		}
	}
	return best
}

// TestMinSeparationPinned pins Map.MinSeparation on every built-in CUT's
// paper map (the paper's ±10–40% universe at ω0/2 and 2ω0): it must equal
// the ProjectN-based computation bit for bit, and — on amd64, where the
// values were recorded — the recorded bits. Should an engine change move
// the map's points, re-record the table from the oracle.
func TestMinSeparationPinned(t *testing.T) {
	recorded := map[string]uint64{
		"nf-lowpass-7":  0x3f4f9bc866863367,
		"sallen-key-lp": 0,
		"mfb-bandpass":  0x3f6d07f66ca01764,
		"khn-lowpass":   0,
		"tow-thomas-lp": 0,
		"twin-t-notch":  0x3eedd31906778220,
		"lc-ladder-lp":  0,
		"rlc-notch":     0,
		"rc-ladder-3":   0,
	}
	for _, cut := range circuits.All() {
		name := cut.Circuit.Name()
		u, err := fault.PaperUniverse(cut.Passives)
		if err != nil {
			t.Fatal(err)
		}
		d, err := dictionary.New(cut.Circuit, cut.Source, cut.Output, u)
		if err != nil {
			t.Fatal(err)
		}
		m, err := Build(nil, d, []float64{cut.Omega0 / 2, 2 * cut.Omega0})
		if err != nil {
			t.Fatal(err)
		}
		got := m.MinSeparation()

		want := math.Inf(1)
		tol := m.originTolerance()
		for i, a := range m.Trajectories {
			for j, b := range m.Trajectories {
				if i == j {
					continue
				}
				for _, p := range a.Points {
					if geometry.NormN(p) <= tol {
						continue
					}
					if dist := oracleDistToN(b.Points, p); dist < want {
						want = dist
					}
				}
			}
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: MinSeparation = %v (%#016x), oracle %v (%#016x)",
				name, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		bits, ok := recorded[name]
		if !ok {
			t.Errorf("%s: no recorded MinSeparation", name)
			continue
		}
		if runtime.GOARCH == "amd64" && math.Float64bits(got) != bits {
			t.Errorf("%s: MinSeparation = %v (%#016x), recorded %v (%#016x)",
				name, got, math.Float64bits(got), math.Float64frombits(bits), bits)
		}
	}
}
