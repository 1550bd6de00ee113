package numeric

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// This file keeps the map-based symbolic analysis AnalyzeSparse used to
// run — per-row and per-column slices for the pattern and the
// transversal, the minimum-degree ordering over per-node Go maps with an
// O(n) pivot scan, and the symbolic fill that sorts each whole row — as
// the oracle the production path must reproduce array for array.

// analyzeSparseOracle is AnalyzeSparse on the oracle transversal,
// ordering and fill. The postorder relabeling and the supernode
// schedule are the production ones: they read only what the oracle
// phases produce.
func analyzeSparseOracle(n int, rows [][]int) (*SparseSymbolic, error) {
	if n <= 0 {
		return nil, fmt.Errorf("numeric: analyze %dx%d pattern: %w", n, n, ErrDimension)
	}
	if len(rows) != n {
		return nil, fmt.Errorf("numeric: analyze n=%d with %d pattern rows: %w", n, len(rows), ErrDimension)
	}
	adj := make([][]int, n)
	seen := make([]int, n)
	annz := 0
	for i, r := range rows {
		var out []int
		for _, j := range r {
			if j < 0 || j >= n {
				return nil, fmt.Errorf("numeric: pattern entry (%d,%d) out of range n=%d: %w", i, j, n, ErrDimension)
			}
			if seen[j] != i+1 {
				seen[j] = i + 1
				out = append(out, j)
			}
		}
		sort.Ints(out)
		adj[i] = out
		annz += len(out)
	}
	match, err := maxTransversalOracle(n, adj)
	if err != nil {
		return nil, err
	}
	crows := make([][]int, n)
	for j := 0; j < n; j++ {
		crows[j] = adj[match[j]]
	}
	q := minDegreeOrderOracle(n, crows)
	sym := &SparseSymbolic{
		n:       n,
		rowperm: make([]int, n),
		colperm: make([]int, n),
		invRow:  make([]int, n),
		invCol:  make([]int, n),
		annz:    annz,
	}
	for i := 0; i < n; i++ {
		sym.rowperm[i] = match[q[i]]
		sym.colperm[i] = q[i]
	}
	for i := 0; i < n; i++ {
		sym.invRow[sym.rowperm[i]] = i
		sym.invCol[sym.colperm[i]] = i
	}
	symbolicFillOracle(sym, adj)
	sym.postorderRelabel()
	symbolicFillOracle(sym, adj)
	sym.buildSupernodes()
	return sym, nil
}

// maxTransversalOracle is the transversal over per-column row slices.
func maxTransversalOracle(n int, adj [][]int) ([]int, error) {
	rowsOfCol := make([][]int, n)
	for i, r := range adj {
		for _, j := range r {
			rowsOfCol[j] = append(rowsOfCol[j], i)
		}
	}
	matchRow := make([]int, n)
	match := make([]int, n)
	for i := range matchRow {
		matchRow[i] = -1
		match[i] = -1
	}
	visited := make([]int, n)
	stamp := 0
	var augment func(j int) bool
	augment = func(j int) bool {
		for _, i := range rowsOfCol[j] {
			if visited[i] == stamp {
				continue
			}
			visited[i] = stamp
			if matchRow[i] < 0 || augment(matchRow[i]) {
				matchRow[i] = j
				match[j] = i
				return true
			}
		}
		return false
	}
	for j := 0; j < n; j++ {
		row := adj[j]
		t := sort.SearchInts(row, j)
		if t < len(row) && row[t] == j {
			matchRow[j] = j
			match[j] = j
		}
	}
	for j := 0; j < n; j++ {
		if match[j] >= 0 {
			continue
		}
		stamp++
		if !augment(j) {
			return nil, fmt.Errorf("numeric: pattern is structurally singular (no zero-free diagonal through column %d): %w", j, ErrSingular)
		}
	}
	return match, nil
}

// minDegreeOrderOracle is minimum degree on per-node map sets with a
// linear scan for the (least degree, smallest index) pivot.
func minDegreeOrderOracle(n int, crows [][]int) []int {
	nbr := make([]map[int]struct{}, n)
	for i := range nbr {
		nbr[i] = make(map[int]struct{})
	}
	for i, r := range crows {
		for _, j := range r {
			if i != j {
				nbr[i][j] = struct{}{}
				nbr[j][i] = struct{}{}
			}
		}
	}
	q := make([]int, 0, n)
	eliminated := make([]bool, n)
	for len(q) < n {
		best, bestDeg := -1, n+1
		for v := 0; v < n; v++ {
			if eliminated[v] {
				continue
			}
			if d := len(nbr[v]); d < bestDeg {
				best, bestDeg = v, d
			}
		}
		v := best
		eliminated[v] = true
		q = append(q, v)
		var live []int
		for u := range nbr[v] {
			if !eliminated[u] {
				live = append(live, u)
				delete(nbr[u], v)
			}
		}
		sort.Ints(live)
		for ai, a := range live {
			for _, b := range live[ai+1:] {
				nbr[a][b] = struct{}{}
				nbr[b][a] = struct{}{}
			}
		}
	}
	return q
}

// symbolicFillOracle is the row-merge symbolic elimination that sorts
// every whole row and searches it for the diagonal.
func symbolicFillOracle(s *SparseSymbolic, adj [][]int) {
	n := s.n
	s.rowStart = make([]int, n+1)
	s.diagPos = make([]int, n)
	s.cols = s.cols[:0]
	mark := make([]int, n)
	for i := range mark {
		mark[i] = -1
	}
	var heap intHeap
	var rowcols []int
	for i := 0; i < n; i++ {
		rowcols = rowcols[:0]
		heap = heap[:0]
		for _, origCol := range adj[s.rowperm[i]] {
			j := s.invCol[origCol]
			if mark[j] != i {
				mark[j] = i
				rowcols = append(rowcols, j)
				if j < i {
					heap.push(j)
				}
			}
		}
		for len(heap) > 0 {
			k := heap.pop()
			for t := s.diagPos[k] + 1; t < s.rowStart[k+1]; t++ {
				j := s.cols[t]
				if mark[j] != i {
					mark[j] = i
					rowcols = append(rowcols, j)
					if j < i {
						heap.push(j)
					}
				}
			}
		}
		sort.Ints(rowcols)
		s.rowStart[i] = len(s.cols)
		base := len(s.cols)
		s.cols = append(s.cols, rowcols...)
		diag := -1
		for t, j := range rowcols {
			if j == i {
				diag = base + t
				break
			}
		}
		if diag < 0 {
			panic(fmt.Sprintf("oracle: symbolic fill lost diagonal of row %d", i))
		}
		s.diagPos[i] = diag
		s.rowStart[i+1] = len(s.cols)
	}
}

// symbolicDiff names the first array in which got differs from want, or
// returns "" when every array of the analysis is equal.
func symbolicDiff(want, got *SparseSymbolic) string {
	ints := []struct {
		name      string
		want, got []int
	}{
		{"rowperm", want.rowperm, got.rowperm},
		{"colperm", want.colperm, got.colperm},
		{"invRow", want.invRow, got.invRow},
		{"invCol", want.invCol, got.invCol},
		{"rowStart", want.rowStart, got.rowStart},
		{"cols", want.cols, got.cols},
		{"diagPos", want.diagPos, got.diagPos},
	}
	for _, a := range ints {
		if !slices.Equal(a.want, a.got) {
			return fmt.Sprintf("%s differs (len %d vs %d)", a.name, len(a.want), len(a.got))
		}
	}
	i32 := []struct {
		name      string
		want, got []int32
	}{
		{"snStart", want.snStart, got.snStart},
		{"snOf", want.snOf, got.snOf},
		{"depOff", want.depOff, got.depOff},
		{"depSn", want.depSn, got.depSn},
		{"lvlOff", want.lvlOff, got.lvlOff},
		{"lvlSn", want.lvlSn, got.lvlSn},
	}
	for _, a := range i32 {
		if !slices.Equal(a.want, a.got) {
			return fmt.Sprintf("%s differs (len %d vs %d)", a.name, len(a.want), len(a.got))
		}
	}
	if want.n != got.n || want.annz != got.annz || want.maxPanel != got.maxPanel {
		return fmt.Sprintf("n/annz/maxPanel %d/%d/%d vs %d/%d/%d",
			want.n, want.annz, want.maxPanel, got.n, got.annz, got.maxPanel)
	}
	return ""
}

// checkAgainstOracle analyzes one pattern both ways and requires the
// same error text (or nil for both) and, on success, equal arrays.
func checkAgainstOracle(n int, rows [][]int) error {
	want, werr := analyzeSparseOracle(n, rows)
	got, gerr := AnalyzeSparse(n, rows)
	if fmt.Sprint(werr) != fmt.Sprint(gerr) {
		return fmt.Errorf("n=%d: oracle err %v, production err %v", n, werr, gerr)
	}
	if werr != nil {
		return nil
	}
	if d := symbolicDiff(want, got); d != "" {
		return fmt.Errorf("n=%d: %s", n, d)
	}
	return nil
}

// randPattern draws an unsymmetric pattern with a structural diagonal
// (before a random row shuffle, so the transversal has work to do),
// random off-diagonal entries and repeated entries.
func randPattern(rng *rand.Rand, n int) [][]int {
	rows := make([][]int, n)
	density := 1 + rng.Intn(5)
	for i := 0; i < n; i++ {
		rows[i] = append(rows[i], i)
		for k := 0; k < density; k++ {
			j := rng.Intn(n)
			rows[i] = append(rows[i], j)
			if rng.Intn(4) == 0 {
				rows[i] = append(rows[i], j) // duplicate entry
			}
		}
		rng.Shuffle(len(rows[i]), func(a, b int) { rows[i][a], rows[i][b] = rows[i][b], rows[i][a] })
	}
	rng.Shuffle(n, func(a, b int) { rows[a], rows[b] = rows[b], rows[a] })
	return rows
}

// TestMinDegreeOrderMatchesOracle pins the heap ordering to the linear
// scan on random unsymmetric patterns and on grid meshes: the same
// elimination graph and the same (degree, smallest index) choice give
// the same q.
func TestMinDegreeOrderMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	trials := 3000
	if testing.Short() {
		trials = 300
	}
	for trial := 0; trial < trials; trial++ {
		n := 1 + rng.Intn(120)
		rows := randPattern(rng, n)
		if got, want := minDegreeOrder(n, rows), minDegreeOrderOracle(n, rows); !slices.Equal(got, want) {
			t.Fatalf("trial %d n=%d: q differs\n got %v\nwant %v", trial, n, got, want)
		}
	}
	for _, k := range []int{8, 16, 24, 32, 48, 64} {
		n, rows, _ := gridSystem(rng, k)
		if got, want := minDegreeOrder(n, rows), minDegreeOrderOracle(n, rows); !slices.Equal(got, want) {
			t.Fatalf("grid k=%d: q differs", k)
		}
	}
}

// FuzzAnalyzeSparseMatchesOracle decodes bytes into an n×n pattern —
// the first byte picks n in [1, 64], each following pair one (row, col)
// entry — and requires the production analysis to reject what the
// oracle rejects and to reproduce every array of what it accepts. A
// structural diagonal is added on even first bytes so most inputs get
// past the transversal.
func FuzzAnalyzeSparseMatchesOracle(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{2, 0, 1, 1, 0})
	f.Add([]byte{9, 0, 1, 1, 0, 2, 3, 3, 4, 4, 1, 5, 5})
	f.Add([]byte{31, 0, 7, 7, 0, 3, 3, 12, 30, 30, 12, 5, 9, 9, 5, 5, 9})
	f.Add([]byte{5, 0, 0, 1, 0, 2, 2}) // structurally singular
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%64
		rows := make([][]int, n)
		if data[0]%2 == 0 {
			for i := range rows {
				rows[i] = append(rows[i], i)
			}
		}
		for p := 1; p+1 < len(data); p += 2 {
			i, j := int(data[p])%n, int(data[p+1])%n
			rows[i] = append(rows[i], j)
		}
		if err := checkAgainstOracle(n, rows); err != nil {
			t.Fatal(err)
		}
	})
}
