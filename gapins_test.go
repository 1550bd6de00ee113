package repro

import (
	"math"
	"testing"

	"repro/internal/trajectory"
)

// gaPin is one fixed-seed paper GA result: the test vector's float64
// bits, the fitness bits and the number of fitness evaluations spent.
type gaPin struct {
	omegas      []uint64
	fitness     uint64
	evaluations int
}

// pinVectors are the test vectors of TestGAResultsPinned, as multiples
// of each CUT's Omega0: k = 1, 2, 3 and 4, so the interval overlap and
// one to six coordinate planes are all counted.
var pinVectors = [][]float64{{0.5, 2}, {0.1, 10}, {0.3, 1, 3}, {1}, {0.05, 0.7, 1.4, 20}}

// gaPins holds, per built-in CUT, Map.Intersections at each pinVectors
// entry and the paper GA's result for seeds 1 and 2. The values were
// recorded before the intersection predicates decided by bounds first;
// every later version of the predicates must reproduce them exactly.
var gaPins = []struct {
	cut    string
	counts []int
	ga     [2]gaPin
}{
	{"nf-lowpass-7", []int{0, 0, 4, 21, 11}, [2]gaPin{{[]uint64{0x3fe207cc027f5613, 0x401235a7ca84ecaf}, 0x3ff0000000000000, 1374}, {[]uint64{0x3fa7e739c02ba0ab, 0x3fbd684dd7e74efc}, 0x3ff0000000000000, 1355}}},
	{"sallen-key-lp", []int{20, 20, 60, 6, 120}, [2]gaPin{{[]uint64{0x4004f9f5edea60dc, 0x404ce83fb2175a0b}, 0x3fa8618618618618, 1374}, {[]uint64{0x3fa7e739c02ba0ab, 0x3fbd684dd7e74efc}, 0x3fa8618618618618, 1355}}},
	{"mfb-bandpass", []int{0, 0, 0, 10, 5}, [2]gaPin{{[]uint64{0x4004f9f5edea60dc, 0x404ce83fb2175a0b}, 0x3ff0000000000000, 1374}, {[]uint64{0x3fa7e739c02ba0ab, 0x3fbd684dd7e74efc}, 0x3ff0000000000000, 1355}}},
	{"khn-lowpass", []int{71, 68, 148, 36, 308}, [2]gaPin{{[]uint64{0x3fe207cc027f5613, 0x401235a7ca84ecaf}, 0x3f94e5e0a72f0539, 1374}, {[]uint64{0x3fa7e739c02ba0ab, 0x3fbd684dd7e74efc}, 0x3f94e5e0a72f0539, 1355}}},
	{"tow-thomas-lp", []int{66, 64, 180, 28, 344}, [2]gaPin{{[]uint64{0x3f8a9447fa3610bc, 0x3ff3ecd573225e67}, 0x3f929e4129e4129e, 1374}, {[]uint64{0x3f921d5837244680, 0x3ff537655ed1c848}, 0x3f929e4129e4129e, 1355}}},
	{"twin-t-notch", []int{0, 1, 0, 15, 8}, [2]gaPin{{[]uint64{0x3fb329999f63a4a6, 0x4014d0e9d2c1639c}, 0x3ff0000000000000, 1374}, {[]uint64{0x3fdb4df7f6820c4a, 0x40328fd7e858bc17}, 0x3ff0000000000000, 1355}}},
	{"lc-ladder-lp", []int{20, 20, 60, 10, 122}, [2]gaPin{{[]uint64{0x4004f9f5edea60dc, 0x404ce83fb2175a0b}, 0x3fa8618618618618, 1374}, {[]uint64{0x4006eaf34f27942d, 0x4049ae00683cc6c8}, 0x3fa8618618618618, 1355}}},
	{"rlc-notch", []int{25, 29, 0, 10, 28}, [2]gaPin{{[]uint64{0x4004f9f5edea60dc, 0x404ce83fb2175a0b}, 0x3ff0000000000000, 1374}, {[]uint64{0x3fa7e739c02ba0ab, 0x3fbd684dd7e74efc}, 0x3ff0000000000000, 1355}}},
	{"rc-ladder-3", []int{68, 60, 220, 15, 416}, [2]gaPin{{[]uint64{0x3febf7f2928dd677, 0x4033457fcc0f915b}, 0x3f90c9714fbcda3b, 1374}, {[]uint64{0x3fee8e99bedf7039, 0x40311eaaf0288484}, 0x3f90c9714fbcda3b, 1355}}},
}

// TestGAResultsPinned pins the paper's fitness function and the GA it
// drives on every built-in CUT: the intersection counts at fixed test
// vectors, and the seed-1 and seed-2 Optimize results bit for bit.
func TestGAResultsPinned(t *testing.T) {
	cuts := Benchmarks()
	if len(cuts) != len(gaPins) {
		t.Fatalf("%d built-in CUTs, %d pinned", len(cuts), len(gaPins))
	}
	for ci, cut := range cuts {
		pin := gaPins[ci]
		if name := cut.Circuit.Name(); name != pin.cut {
			t.Fatalf("CUT %d is %s, pinned %s", ci, name, pin.cut)
		}
		s, err := NewSession(cut)
		if err != nil {
			t.Fatal(err)
		}
		for vi, rel := range pinVectors {
			omegas := make([]float64, len(rel))
			for i, r := range rel {
				omegas[i] = r * cut.Omega0
			}
			m, err := trajectory.Build(nil, s.Dictionary(), omegas)
			if err != nil {
				t.Fatal(err)
			}
			if got := m.Intersections(); got != pin.counts[vi] {
				t.Errorf("%s at %v: I = %d, pinned %d", pin.cut, omegas, got, pin.counts[vi])
			}
		}
		for si, seed := range []int64{1, 2} {
			cfg := PaperOptimizeConfig(cut.Omega0)
			cfg.Seed = seed
			tv, err := s.Optimize(nil, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := pin.ga[si]
			same := len(tv.Omegas) == len(want.omegas) && math.Float64bits(tv.Fitness) == want.fitness && tv.Evaluations == want.evaluations
			for i := 0; same && i < len(tv.Omegas); i++ {
				same = math.Float64bits(tv.Omegas[i]) == want.omegas[i]
			}
			if !same {
				t.Errorf("%s seed %d: GA found %v (fitness %v, %d evaluations), pinned %#x (fitness %v, %d evaluations)",
					pin.cut, seed, tv.Omegas, tv.Fitness, tv.Evaluations, want.omegas, math.Float64frombits(want.fitness), want.evaluations)
			}
		}
	}
}
