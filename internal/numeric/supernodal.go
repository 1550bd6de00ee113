package numeric

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// This file adds the supernodal numeric phase on top of the compiled
// SparseSymbolic schedule, in the spirit of SuperLU/CHOLMOD adapted to
// the up-looking row-LU of sparse.go:
//
//   - buildSupernodes — one-time detection of supernodes (maximal runs
//     of consecutive permuted rows whose U patterns are nested and whose
//     in-block L is dense), the supernode dependency DAG, and a
//     level-set schedule over it;
//
//   - SparseLU.RefactorSupernodal — numeric refactorization that
//     eliminates one supernode panel at a time: scatter the panel's rows
//     into dense work rows, apply each dependency supernode as a blocked
//     panel-panel update (contiguous float64 sweeps over the split re/im
//     planes — gather the update columns once, reuse each pivot row
//     across the whole panel), finish with a small dense in-panel
//     triangular factorization, and gather back into the CSR planes.
//     Per-position arithmetic and elimination order match the scalar
//     sweep exactly, so factors are bit-identical to RefactorReuse;
//
//   - SparseLU.RefactorParallel — the same elimination driven by a
//     level-set schedule across a caller-chosen worker count. Supernodes
//     within one level write disjoint factor rows, so any worker count
//     produces bit-identical factors;
//
//   - SparseLU.PartialRefactor — clone a base factorization and
//     re-eliminate only the rows transitively affected by a set of
//     touched rows (exact reachability over the static L patterns), for
//     fault deltas that break the SMW guards but not the factorization.
//
// A supernode here is a run [s, e) of permuted rows such that
//
//   (1) U(r) = U(r-1) \ {r-1} for every r in (s, e)   (nested U), and
//   (2) L(r) ⊇ {s, …, r-1}                            (dense in-block L),
//
// so all rows of the supernode share one external column list
// ext(S) = U(s) ∩ [e, n), their in-block columns [s, e) are dense, and a
// dependency supernode T contributes to the panel through contiguous
// slices: pivot row k of T has in-block U values at CSR positions
// dp[k]+1 … dp[k]+(te-k-1) and its ext(T) values as the CSR row tail.
// Runs are capped at maxPanelWidth so panel scratch stays cache-sized;
// splitting a run into consecutive chunks preserves both invariants.

// maxPanelWidth caps supernode width. 32 rows × 4 planes of n float64
// keeps a panel's scratch within L2 for thousand-node systems while
// giving the blocked update enough reuse per loaded pivot row.
const maxPanelWidth = 32

// buildSupernodes detects supernodes over the computed fill pattern and
// derives the dependency DAG plus its level sets. Called once at the end
// of AnalyzeSparse.
func (s *SparseSymbolic) buildSupernodes() {
	n := s.n
	rs, dp, cols := s.rowStart, s.diagPos, s.cols
	s.snOf = make([]int32, n)
	s.snStart = append(s.snStart[:0], 0)
	s.maxPanel = 1
	start := 0
	for r := 1; r <= n; r++ {
		join := false
		if r < n && r-start < maxPanelWidth {
			w := r - start
			lenU := rs[r+1] - dp[r]
			lenUp := rs[r] - dp[r-1]
			join = lenU == lenUp-1 && dp[r]-rs[r] >= w
			if join {
				// Nested U: row r's U segment equals row r-1's minus
				// its diagonal.
				for q := 0; q < lenU; q++ {
					if cols[dp[r]+q] != cols[dp[r-1]+1+q] {
						join = false
						break
					}
				}
			}
			if join {
				// Dense in-block L: the w pattern entries just left of
				// the diagonal are exactly start … r-1.
				for q := 0; q < w; q++ {
					if cols[dp[r]-w+q] != start+q {
						join = false
						break
					}
				}
			}
		}
		if !join {
			if w := r - start; w > s.maxPanel {
				s.maxPanel = w
			}
			s.snStart = append(s.snStart, int32(r))
			start = r
		}
	}
	S := len(s.snStart) - 1
	for sn := 0; sn < S; sn++ {
		for r := s.snStart[sn]; r < s.snStart[sn+1]; r++ {
			s.snOf[r] = int32(sn)
		}
	}

	// Dependency DAG: supernode sn depends on every supernode owning a
	// column of its rows' L patterns. Levels: longest dependency chain.
	s.depOff = make([]int32, S+1)
	level := make([]int32, S)
	seen := make([]int32, S)
	for i := range seen {
		seen[i] = -1
	}
	var deps []int32
	maxLvl := int32(0)
	for sn := 0; sn < S; sn++ {
		lo, hi := int(s.snStart[sn]), int(s.snStart[sn+1])
		lv := int32(0)
		for r := lo; r < hi; r++ {
			for t := rs[r]; t < dp[r]; t++ {
				k := cols[t]
				if k >= lo {
					break // in-block L; pattern is sorted
				}
				d := s.snOf[k]
				if seen[d] != int32(sn) {
					seen[d] = int32(sn)
					deps = append(deps, d)
					if level[d]+1 > lv {
						lv = level[d] + 1
					}
				}
			}
		}
		seg := deps[s.depOff[sn]:]
		slices.Sort(seg)
		s.depOff[sn+1] = int32(len(deps))
		level[sn] = lv
		if lv > maxLvl {
			maxLvl = lv
		}
	}
	s.depSn = deps

	// Level sets, CSR over supernode ids; filling in ascending sn order
	// keeps each level's list ascending.
	nl := int(maxLvl) + 1
	s.lvlOff = make([]int32, nl+1)
	for _, lv := range level {
		s.lvlOff[lv+1]++
	}
	for l := 0; l < nl; l++ {
		s.lvlOff[l+1] += s.lvlOff[l]
	}
	s.lvlSn = make([]int32, S)
	cur := make([]int32, nl)
	copy(cur, s.lvlOff[:nl])
	for sn := 0; sn < S; sn++ {
		lv := level[sn]
		s.lvlSn[cur[lv]] = int32(sn)
		cur[lv]++
	}
}

// Supernodes returns the number of supernodes in the schedule.
func (s *SparseSymbolic) Supernodes() int { return len(s.snStart) - 1 }

// MaxPanel returns the widest supernode (rows per panel).
func (s *SparseSymbolic) MaxPanel() int { return s.maxPanel }

// Levels returns the number of level sets in the parallel schedule —
// the critical-path length of the supernode dependency DAG.
func (s *SparseSymbolic) Levels() int { return len(s.lvlOff) - 1 }

// PermutedRow maps an original row index to its permuted position — the
// coordinate space PartialRefactor's touched-row lists use.
func (s *SparseSymbolic) PermutedRow(orig int) int { return s.invRow[orig] }

// RowOfIndex returns the permuted row owning value-plane position t
// (binary search; intended for compile-time program construction).
func (s *SparseSymbolic) RowOfIndex(t int) int {
	if t < 0 || t >= len(s.cols) {
		return -1
	}
	return sort.SearchInts(s.rowStart, t+1) - 1
}

// panelScratch is one worker's supernodal elimination scratch: maxPanel
// dense work rows (stride n) holding the panel being eliminated, the
// gathered external-column rows for the blocked updates, and the active
// source-row list for one dependency supernode.
type panelScratch struct {
	wre, wim []float64
	gre, gim []float64
	act      []int
}

// growPanels sizes per-worker panel scratch for nw workers.
func (f *SparseLU) growPanels(nw int) {
	sym := f.sym
	need := sym.maxPanel * sym.n
	for len(f.panels) < nw {
		f.panels = append(f.panels, panelScratch{})
	}
	for w := 0; w < nw; w++ {
		p := &f.panels[w]
		if cap(p.wre) < need {
			p.wre = make([]float64, need)
			p.wim = make([]float64, need)
			p.gre = make([]float64, need)
			p.gim = make([]float64, need)
		}
		if cap(p.act) < sym.maxPanel {
			p.act = make([]int, 0, sym.maxPanel)
		}
		p.wre, p.wim = p.wre[:need], p.wim[:need]
		p.gre, p.gim = p.gre[:need], p.gim[:need]
	}
}

// RefactorSupernodal is RefactorReuse with the numeric phase driven by
// the supernodal schedule: same inputs, same guard, same ErrSingular
// contract, bit-identical factors, but the elimination runs as blocked
// panel-panel updates whose inner loops sweep contiguous float64 planes.
func (f *SparseLU) RefactorSupernodal(sym *SparseSymbolic, are, aim []float64) error {
	if err := f.prepRefactor(sym, are, aim); err != nil {
		return err
	}
	f.growPanels(1)
	p := &f.panels[0]
	S := sym.Supernodes()
	for sn := 0; sn < S; sn++ {
		if err := f.eliminateSupernode(sn, are, aim, p); err != nil {
			return err
		}
	}
	return nil
}

// eliminateSupernode factors the panel of supernode sn from the input
// planes into the CSR factor planes. The work rows in p must be (and are
// left) all-zero outside the elimination. The per-position arithmetic
// mirrors factorRowScalar exactly: pivots are applied in ascending
// global order, each update position receives the same single
// subtraction, and rows whose work-row value at a pivot is exactly zero
// skip that pivot — so the factors match the scalar sweep bit for bit.
func (f *SparseLU) eliminateSupernode(sn int, are, aim []float64, p *panelScratch) error {
	sym := f.sym
	n := sym.n
	cols, rs, dp := sym.cols, sym.rowStart, sym.diagPos
	vre, vim := f.vre, f.vim
	lo, hi := int(sym.snStart[sn]), int(sym.snStart[sn+1])
	w := hi - lo

	if w == 1 {
		// A singleton supernode gains nothing from panel machinery; the
		// plain scalar row walk over its exact L pattern is the fastest
		// (and trivially bit-identical) elimination. The panel's first
		// work row serves as scratch so parallel workers stay disjoint.
		return f.factorRowInto(lo, are, aim, p.wre[:n], p.wim[:n])
	}

	// Scatter the panel's rows from the input planes.
	for q := 0; q < w; q++ {
		r := lo + q
		wr := p.wre[q*n : (q+1)*n]
		wi := p.wim[q*n : (q+1)*n]
		for t := rs[r]; t < rs[r+1]; t++ {
			wr[cols[t]] = are[t]
			wi[cols[t]] = aim[t]
		}
	}

	// External phase: apply each dependency supernode T, ascending, as a
	// blocked update. T's pivot rows are contiguous in the CSR planes
	// (in-block slice + ext tail), and the panel's update columns are
	// gathered once per T so the inner axpys run over contiguous runs.
	for di := sym.depOff[sn]; di < sym.depOff[sn+1]; di++ {
		T := int(sym.depSn[di])
		ts, te := int(sym.snStart[T]), int(sym.snStart[T+1])
		wT := te - ts
		mT := rs[ts+1] - dp[ts] - wT // |ext(T)|
		extc := cols[rs[ts+1]-mT : rs[ts+1]]

		// Rows of the panel with any entry under T's columns. Positions
		// outside a row's pattern are exact zeros, so this scan is a
		// faithful "does scalar elimination touch T" test.
		act := p.act[:0]
		for q := 0; q < w; q++ {
			wr := p.wre[q*n+ts : q*n+te]
			wi := p.wim[q*n+ts : q*n+te]
			for x := range wr {
				if wr[x] != 0 || wi[x] != 0 {
					act = append(act, q)
					break
				}
			}
		}
		if len(act) == 0 {
			continue
		}

		if len(act) == 1 || wT < 3 {
			// Narrow dependencies (or a single active row) don't repay
			// the gather/scatter of their ext columns: update the work
			// rows in place through the CSR indices, pivot-outer so the
			// U row stays cache-hot across the active panel rows.
			for k := ts; k < te; k++ {
				irk, iik := f.ire[k], f.iim[k]
				us, ue := dp[k]+1, rs[k+1]
				for _, q := range act {
					wr := p.wre[q*n : (q+1)*n]
					wi := p.wim[q*n : (q+1)*n]
					ar, ai := wr[k], wi[k]
					if ar == 0 && ai == 0 {
						continue
					}
					mr := ar*irk - ai*iik
					mi := ar*iik + ai*irk
					wr[k], wi[k] = mr, mi
					for u := us; u < ue; u++ {
						j := cols[u]
						r0, m0 := vre[u], vim[u]
						wr[j] -= mr*r0 - mi*m0
						wi[j] -= mr*m0 + mi*r0
					}
				}
			}
			continue
		}

		// Gather the panel's ext(T) columns into contiguous g rows.
		for _, q := range act {
			wr := p.wre[q*n:]
			wi := p.wim[q*n:]
			gr := p.gre[q*n : q*n+mT]
			gi := p.gim[q*n : q*n+mT]
			for x, c := range extc {
				gr[x] = wr[c]
				gi[x] = wi[c]
			}
		}
		// Blocked update, register-tiled over pairs of active rows: each
		// pivot's U row is streamed once per pair (instead of once per
		// row) while the pair's g rows stay L1-resident across all of
		// T's pivots.
		a := 0
		for ; a+1 < len(act); a += 2 {
			f.panelUpdatePair(p, n, ts, te, mT, act[a], act[a+1])
		}
		if a < len(act) {
			f.panelUpdateOne(p, n, ts, te, mT, act[a])
		}
		// Scatter the updated ext(T) columns back: they include pivot
		// columns of supernodes between T and sn, which later dependency
		// updates read from the work rows.
		for _, q := range act {
			wr := p.wre[q*n:]
			wi := p.wim[q*n:]
			gr := p.gre[q*n : q*n+mT]
			gi := p.gim[q*n : q*n+mT]
			for x, c := range extc {
				wr[c] = gr[x]
				wi[c] = gi[x]
			}
		}
	}

	// Internal phase: dense triangular factorization within the panel.
	// Row q's in-block columns are the dense run [lo, hi) of its work
	// row; its ext(S) columns are gathered once into its g row.
	mS := rs[lo+1] - dp[lo] - w // |ext(S)|
	extS := cols[rs[lo+1]-mS : rs[lo+1]]
	for q := 0; q < w; q++ {
		wr := p.wre[q*n:]
		wi := p.wim[q*n:]
		gr := p.gre[q*n : q*n+mS]
		gi := p.gim[q*n : q*n+mS]
		for x, c := range extS {
			gr[x] = wr[c]
			gi[x] = wi[c]
		}
	}
	for q := 0; q < w; q++ {
		r := lo + q
		wr := p.wre[q*n : (q+1)*n]
		wi := p.wim[q*n : (q+1)*n]
		gr := p.gre[q*n : q*n+mS]
		gi := p.gim[q*n : q*n+mS]
		for qq := 0; qq < q; qq++ {
			kk := lo + qq
			ar, ai := wr[kk], wi[kk]
			if ar == 0 && ai == 0 {
				continue
			}
			mr := ar*f.ire[kk] - ai*f.iim[kk]
			mi := ar*f.iim[kk] + ai*f.ire[kk]
			wr[kk], wi[kk] = mr, mi
			sr := p.wre[qq*n : (qq+1)*n]
			si := p.wim[qq*n : (qq+1)*n]
			for c := kk + 1; c < hi; c++ {
				r0, m0 := sr[c], si[c]
				wr[c] -= mr*r0 - mi*m0
				wi[c] -= mr*m0 + mi*r0
			}
			hr := p.gre[qq*n : qq*n+mS]
			hsi := p.gim[qq*n : qq*n+mS]
			for x := range hr {
				r0, m0 := hr[x], hsi[x]
				gr[x] -= mr*r0 - mi*m0
				gi[x] -= mr*m0 + mi*r0
			}
		}
		dr, di := wr[r], wi[r]
		d2 := dr*dr + di*di
		if d2 == 0 || d2 < f.guard2 {
			// Leave the scratch clean for the next refactorization —
			// a failed panel must not contaminate later eliminations.
			f.clearPanel(sn, p)
			if d2 == 0 {
				return fmt.Errorf("numeric: zero pivot at row %d: %w", r, ErrSingular)
			}
			return fmt.Errorf("numeric: pivot at row %d below static-pivot guard: %w", r, ErrSingular)
		}
		f.ire[r], f.iim[r] = recip(dr, di)
	}

	// Gather the factored panel into the CSR planes and clear the work
	// rows: L and in-block values from the work row, ext(S) values from
	// the g row (the work row's ext positions are stale pre-internal
	// values and are cleared here too).
	for q := 0; q < w; q++ {
		r := lo + q
		wr := p.wre[q*n:]
		wi := p.wim[q*n:]
		gr := p.gre[q*n : q*n+mS]
		gi := p.gim[q*n : q*n+mS]
		x := 0
		for t := rs[r]; t < rs[r+1]; t++ {
			c := cols[t]
			if c < hi {
				vre[t] = wr[c]
				vim[t] = wi[c]
			} else {
				vre[t] = gr[x]
				vim[t] = gi[x]
				x++
			}
			wr[c] = 0
			wi[c] = 0
		}
	}
	return nil
}

// panelUpdateOne applies dependency supernode [ts,te) to one panel row:
// multiplier from the work row, dense in-block axpy, contiguous ext axpy
// on the gathered g row. Per-position arithmetic matches the scalar
// sweep exactly; rows with a zero value at a pivot skip it, as the
// scalar walk does by never visiting absent pattern entries.
func (f *SparseLU) panelUpdateOne(p *panelScratch, n, ts, te, mT, q int) {
	sym := f.sym
	rs, dp := sym.rowStart, sym.diagPos
	vre, vim := f.vre, f.vim
	wr := p.wre[q*n : (q+1)*n]
	wi := p.wim[q*n : (q+1)*n]
	gr := p.gre[q*n : q*n+mT]
	gi := p.gim[q*n : q*n+mT]
	for k := ts; k < te; k++ {
		ar, ai := wr[k], wi[k]
		if ar == 0 && ai == 0 {
			continue
		}
		mr := ar*f.ire[k] - ai*f.iim[k]
		mi := ar*f.iim[k] + ai*f.ire[k]
		wr[k], wi[k] = mr, mi
		ubr := vre[dp[k]+1 : dp[k]+te-k]
		ubi := vim[dp[k]+1 : dp[k]+te-k]
		br := wr[k+1 : k+1+len(ubr)]
		bi := wi[k+1 : k+1+len(ubi)]
		for x := range ubr {
			r0, m0 := ubr[x], ubi[x]
			br[x] -= mr*r0 - mi*m0
			bi[x] -= mr*m0 + mi*r0
		}
		uer := vre[rs[k+1]-mT : rs[k+1]]
		uei := vim[rs[k+1]-mT : rs[k+1]]
		for x := range uer {
			r0, m0 := uer[x], uei[x]
			gr[x] -= mr*r0 - mi*m0
			gi[x] -= mr*m0 + mi*r0
		}
	}
}

// panelUpdatePair is panelUpdateOne over two independent panel rows at
// once: the pivot's U row is loaded once per pair and both rows' axpys
// run fused, doubling the arithmetic per byte streamed. When only one
// of the rows is active at a pivot the update degenerates to the
// single-row form, so every row still performs exactly the scalar
// sweep's operations.
func (f *SparseLU) panelUpdatePair(p *panelScratch, n, ts, te, mT, q1, q2 int) {
	sym := f.sym
	rs, dp := sym.rowStart, sym.diagPos
	vre, vim := f.vre, f.vim
	wr1 := p.wre[q1*n : (q1+1)*n]
	wi1 := p.wim[q1*n : (q1+1)*n]
	gr1 := p.gre[q1*n : q1*n+mT]
	gi1 := p.gim[q1*n : q1*n+mT]
	wr2 := p.wre[q2*n : (q2+1)*n]
	wi2 := p.wim[q2*n : (q2+1)*n]
	gr2 := p.gre[q2*n : q2*n+mT]
	gi2 := p.gim[q2*n : q2*n+mT]
	for k := ts; k < te; k++ {
		ar1, ai1 := wr1[k], wi1[k]
		ar2, ai2 := wr2[k], wi2[k]
		z1 := ar1 == 0 && ai1 == 0
		z2 := ar2 == 0 && ai2 == 0
		if z1 && z2 {
			continue
		}
		irk, iik := f.ire[k], f.iim[k]
		ubr := vre[dp[k]+1 : dp[k]+te-k]
		ubi := vim[dp[k]+1 : dp[k]+te-k]
		uer := vre[rs[k+1]-mT : rs[k+1]]
		uei := vim[rs[k+1]-mT : rs[k+1]]
		if z2 {
			mr := ar1*irk - ai1*iik
			mi := ar1*iik + ai1*irk
			wr1[k], wi1[k] = mr, mi
			br := wr1[k+1 : k+1+len(ubr)]
			bi := wi1[k+1 : k+1+len(ubi)]
			for x := range ubr {
				r0, m0 := ubr[x], ubi[x]
				br[x] -= mr*r0 - mi*m0
				bi[x] -= mr*m0 + mi*r0
			}
			for x := range uer {
				r0, m0 := uer[x], uei[x]
				gr1[x] -= mr*r0 - mi*m0
				gi1[x] -= mr*m0 + mi*r0
			}
			continue
		}
		if z1 {
			mr := ar2*irk - ai2*iik
			mi := ar2*iik + ai2*irk
			wr2[k], wi2[k] = mr, mi
			br := wr2[k+1 : k+1+len(ubr)]
			bi := wi2[k+1 : k+1+len(ubi)]
			for x := range ubr {
				r0, m0 := ubr[x], ubi[x]
				br[x] -= mr*r0 - mi*m0
				bi[x] -= mr*m0 + mi*r0
			}
			for x := range uer {
				r0, m0 := uer[x], uei[x]
				gr2[x] -= mr*r0 - mi*m0
				gi2[x] -= mr*m0 + mi*r0
			}
			continue
		}
		m1r := ar1*irk - ai1*iik
		m1i := ar1*iik + ai1*irk
		wr1[k], wi1[k] = m1r, m1i
		m2r := ar2*irk - ai2*iik
		m2i := ar2*iik + ai2*irk
		wr2[k], wi2[k] = m2r, m2i
		b1r := wr1[k+1 : k+1+len(ubr)]
		b1i := wi1[k+1 : k+1+len(ubi)]
		b2r := wr2[k+1 : k+1+len(ubr)]
		b2i := wi2[k+1 : k+1+len(ubi)]
		for x := range ubr {
			r0, m0 := ubr[x], ubi[x]
			b1r[x] -= m1r*r0 - m1i*m0
			b1i[x] -= m1r*m0 + m1i*r0
			b2r[x] -= m2r*r0 - m2i*m0
			b2i[x] -= m2r*m0 + m2i*r0
		}
		for x := range uer {
			r0, m0 := uer[x], uei[x]
			g1r := gr1[x]
			g1i := gi1[x]
			g2r := gr2[x]
			g2i := gi2[x]
			gr1[x] = g1r - (m1r*r0 - m1i*m0)
			gi1[x] = g1i - (m1r*m0 + m1i*r0)
			gr2[x] = g2r - (m2r*r0 - m2i*m0)
			gi2[x] = g2i - (m2r*m0 + m2i*r0)
		}
	}
}

// clearPanel zeros supernode sn's work rows after a failed elimination.
// Every write during elimination lands inside a row's static pattern, so
// sweeping the pattern restores the all-zero invariant.
func (f *SparseLU) clearPanel(sn int, p *panelScratch) {
	sym := f.sym
	n := sym.n
	cols, rs := sym.cols, sym.rowStart
	lo, hi := int(sym.snStart[sn]), int(sym.snStart[sn+1])
	for q := 0; q < hi-lo; q++ {
		r := lo + q
		wr := p.wre[q*n:]
		wi := p.wim[q*n:]
		for t := rs[r]; t < rs[r+1]; t++ {
			wr[cols[t]] = 0
			wi[cols[t]] = 0
		}
	}
}

// lvlBarrier is a reusable cyclic barrier for the level-set schedule.
type lvlBarrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	parties int
	waiting int
	gen     int
}

func newLvlBarrier(parties int) *lvlBarrier {
	b := &lvlBarrier{parties: parties}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *lvlBarrier) wait() {
	b.mu.Lock()
	g := b.gen
	b.waiting++
	if b.waiting == b.parties {
		b.waiting = 0
		b.gen++
		b.cond.Broadcast()
		b.mu.Unlock()
		return
	}
	for g == b.gen {
		b.cond.Wait()
	}
	b.mu.Unlock()
}

// RefactorParallel is RefactorSupernodal with the level-set schedule
// fanned out over `workers` goroutines: each level's supernodes are
// claimed from a shared cursor, and a barrier separates levels so every
// dependency is factored before its dependents start. Supernodes write
// disjoint factor rows, so the factors are bit-identical at every worker
// count (and to the sequential and scalar paths). On a singular pivot
// the current level still drains — same-level supernodes are
// independent — and the failure with the smallest supernode id is
// reported, so the outcome does not depend on scheduling; which row a
// multi-failure error names may still differ from the sequential sweep,
// but it always wraps ErrSingular. workers ≤ 1 runs sequentially; the
// parallel path allocates (goroutines, barrier) per call.
func (f *SparseLU) RefactorParallel(sym *SparseSymbolic, are, aim []float64, workers int) error {
	if workers <= 1 {
		return f.RefactorSupernodal(sym, are, aim)
	}
	if err := f.prepRefactor(sym, are, aim); err != nil {
		return err
	}
	f.growPanels(workers)
	nl := sym.Levels()
	if cap(f.lvlCur) < nl {
		f.lvlCur = make([]int64, nl)
	}
	f.lvlCur = f.lvlCur[:nl]
	for i := range f.lvlCur {
		f.lvlCur[i] = 0
	}

	var (
		failed  atomic.Bool
		errMu   sync.Mutex
		errSn   = sym.Supernodes()
		callErr error
	)
	bar := newLvlBarrier(workers)
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			p := &f.panels[wk]
			for lv := 0; lv < nl; lv++ {
				// A failure stops the schedule at level granularity:
				// the failing level drains fully (deterministic error
				// selection), deeper levels never start.
				if !failed.Load() {
					base := int(sym.lvlOff[lv])
					cnt := int(sym.lvlOff[lv+1]) - base
					for {
						idx := int(atomic.AddInt64(&f.lvlCur[lv], 1)) - 1
						if idx >= cnt {
							break
						}
						sn := int(sym.lvlSn[base+idx])
						if err := f.eliminateSupernode(sn, are, aim, p); err != nil {
							failed.Store(true)
							errMu.Lock()
							if sn < errSn {
								errSn, callErr = sn, err
							}
							errMu.Unlock()
						}
					}
				}
				bar.wait()
			}
		}(wk)
	}
	wg.Wait()
	return callErr
}

// PartialRefactor clones base's factorization over the same symbolic
// pattern and re-eliminates only the rows transitively affected by the
// given touched permuted rows under the patched value planes are/aim:
// row i is recomputed when it is touched or when any column of its L
// pattern is a recomputed row (exact reachability over the static
// patterns — a superset of the touched columns' elimination-tree
// ancestors for unsymmetric fill). Untouched rows keep base's values
// verbatim, so the result is bit-identical to a from-scratch
// RefactorReuse on the patched planes. It returns the number of rows
// recomputed. The pivot guard is re-derived from the patched magnitude;
// when it tightens past base's, the kept pivots are re-checked so
// accept/reject matches the from-scratch sweep.
func (f *SparseLU) PartialRefactor(base *SparseLU, are, aim []float64, touched []int) (int, error) {
	if base.sym == nil {
		return 0, fmt.Errorf("numeric: partial refactor from unfactored base: %w", ErrDimension)
	}
	sym := base.sym
	if err := f.prepRefactor(sym, are, aim); err != nil {
		return 0, err
	}
	n := sym.n
	copy(f.vre, base.vre)
	copy(f.vim, base.vim)
	copy(f.ire, base.ire)
	copy(f.iim, base.iim)

	if len(f.markRow) < n {
		f.markRow = make([]int, n)
		f.markGen = 0
	}
	f.markGen++
	gen := f.markGen
	min := n
	for _, r := range touched {
		if r < 0 || r >= n {
			return 0, fmt.Errorf("numeric: partial refactor touched row %d out of range n=%d: %w", r, n, ErrDimension)
		}
		f.markRow[r] = gen
		if r < min {
			min = r
		}
	}

	cols, rs, dp := sym.cols, sym.rowStart, sym.diagPos
	count := 0
	for i := min; i < n; i++ {
		m := f.markRow[i] == gen
		if !m {
			for t := rs[i]; t < dp[i]; t++ {
				if f.markRow[cols[t]] == gen {
					m = true
					break
				}
			}
			if m {
				f.markRow[i] = gen
			}
		}
		if !m {
			continue
		}
		count++
		if err := f.factorRowScalar(i, are, aim); err != nil {
			return count, err
		}
	}

	// The guard derives from the patched magnitude; if it tightened,
	// pivots inherited from base must pass it too, exactly as a
	// from-scratch refactorization would demand.
	if f.guard2 > base.guard2 {
		for i := 0; i < n; i++ {
			if f.markRow[i] == gen && i >= min {
				continue
			}
			dr, di := f.vre[dp[i]], f.vim[dp[i]]
			if dr*dr+di*di < f.guard2 {
				return count, fmt.Errorf("numeric: pivot at row %d below static-pivot guard: %w", i, ErrSingular)
			}
		}
	}
	return count, nil
}
