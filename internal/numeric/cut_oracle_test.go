package numeric_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/circuits"
	"repro/internal/engine"
	"repro/internal/numeric"
)

// oracleCUTs is every built-in CUT plus the scaling families up to
// rc-grid-64 (4097 unknowns).
func oracleCUTs(t testing.TB) []circuits.CUT {
	cuts := append(circuits.All(), circuits.Scaling()...)
	for _, name := range []string{"rc-ladder-512", "opamp-cascade-64", "rc-grid-45", "rc-grid-64"} {
		cut, err := circuits.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cuts = append(cuts, cut)
	}
	return cuts
}

// enginePattern compiles cut's engine and returns its analyzed sparse
// pattern alongside the pattern rows of its MNA stamp (taken at a
// generic complex frequency, so no entry cancels to a structural zero).
func enginePattern(t testing.TB, cut circuits.CUT) (*numeric.SparseSymbolic, int, [][]int) {
	eng, err := engine.New(cut.Circuit, cut.Source, cut.Output)
	if err != nil {
		t.Fatalf("%s: engine: %v", cut.Circuit.Name(), err)
	}
	tmpl := eng.Template()
	entries, _, err := tmpl.System().StampEntries(complex(0.37, 1.9), nil)
	if err != nil {
		t.Fatalf("%s: stamp: %v", cut.Circuit.Name(), err)
	}
	n := tmpl.Size()
	rows := make([][]int, n)
	for _, e := range entries {
		rows[e.I] = append(rows[e.I], e.J)
	}
	return tmpl.SparsePattern(), n, rows
}

// TestAnalyzeSparseMatchesOracle pins the production symbolic analysis —
// heap minimum degree, one-sort fill — to the map-based oracle, array
// for array (permutations, L+U pattern, diagonal positions, supernode
// schedule, maxPanel): on every built-in CUT's engine pattern and the
// scaling families up to rc-grid-64, on random unsymmetric patterns with
// duplicate entries, and at n = 1.
func TestAnalyzeSparseMatchesOracle(t *testing.T) {
	for _, cut := range oracleCUTs(t) {
		name := cut.Circuit.Name()
		if testing.Short() && cut.Circuit.NumNodes() > 1500 {
			continue
		}
		got, n, rows := enginePattern(t, cut)
		if got == nil {
			t.Fatalf("%s: engine compiled no sparse pattern", name)
		}
		want, err := numeric.AnalyzeSparseOracle(n, rows)
		if err != nil {
			t.Fatalf("%s: oracle: %v", name, err)
		}
		if d := numeric.SymbolicDiff(want, got); d != "" {
			t.Fatalf("%s (n=%d): engine pattern vs oracle: %s", name, n, d)
		}
	}
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(90)
		if err := numeric.CheckAgainstOracle(n, numeric.RandPattern(rng, n)); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
	for _, rows := range [][][]int{{{0}}, {{0, 0, 0}}} {
		if err := numeric.CheckAgainstOracle(1, rows); err != nil {
			t.Fatalf("n=1 %v: %v", rows, err)
		}
	}
}

// maxAnalyzeAllocRatio bounds AnalyzeSparse's allocated bytes on
// rc-grid-64 over rc-grid-32 (4× the unknowns). See
// TestAnalyzeSparseAllocScaling.
const maxAnalyzeAllocRatio = 7.0

// TestAnalyzeSparseAllocScaling guards the analysis' cost scaling: on
// the rc-grid-32 and rc-grid-64 engine patterns, the ratio of bytes
// allocated by AnalyzeSparse stays under a constant set from the
// measured ratio with ≥ 25% headroom, so a per-pivot or per-row cost
// that turns super-linear again fails here. Bytes come from
// runtime.MemStats.TotalAlloc around a single-goroutine call, which is
// deterministic.
func TestAnalyzeSparseAllocScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation scaling measurement skipped in -short mode")
	}
	bytesFor := func(name string) uint64 {
		cut, err := circuits.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		_, n, rows := enginePattern(t, cut)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := numeric.AnalyzeSparse(n, rows); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := bytesFor("rc-grid-32"), bytesFor("rc-grid-64")
	ratio := float64(large) / float64(small)
	t.Logf("AnalyzeSparse bytes: rc-grid-32 %d, rc-grid-64 %d, ratio %.2f", small, large, ratio)
	if ratio > maxAnalyzeAllocRatio {
		t.Fatalf("rc-grid-64/rc-grid-32 allocation ratio %.2f exceeds %.2f", ratio, maxAnalyzeAllocRatio)
	}
}

// BenchmarkAnalyzeSparse runs the symbolic analysis of the rc-grid-32
// and rc-grid-64 engine patterns.
func BenchmarkAnalyzeSparse(b *testing.B) {
	for _, name := range []string{"rc-grid-32", "rc-grid-64"} {
		cut, err := circuits.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		_, n, rows := enginePattern(b, cut)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := numeric.AnalyzeSparse(n, rows); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func ExampleAnalyzeSparse() {
	// A 3×3 arrow pattern: row 0 couples to every unknown.
	rows := [][]int{{0, 1, 2}, {0, 1}, {0, 2}}
	sym, err := numeric.AnalyzeSparse(3, rows)
	if err != nil {
		panic(err)
	}
	fmt.Println(sym.N(), sym.NNZ(), sym.LUNNZ())
	// Output: 3 7 7
}
