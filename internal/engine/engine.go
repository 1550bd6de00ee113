package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/numeric"
	"repro/internal/obs"
	"repro/internal/rerr"
	"repro/internal/sliceutil"
)

// denGuard is the relative threshold below which a Sherman–Morrison
// denominator (rank 1) or a capacitance-matrix pivot (rank k) counts as
// ill-conditioned and the fault falls back to an exact refactorization.
const denGuard = 1e-3

// cancelGuard flags catastrophic cancellation in the rank-1 correction:
// when the corrected output is this much smaller than the golden output,
// the subtraction may have destroyed the trailing digits, so the fault is
// re-solved exactly.
const cancelGuard = 1e-6

// FactorPath selects which factorization the blocked path's per-frequency
// golden solve runs on.
type FactorPath int

const (
	// FactorAuto applies the size/fill heuristic decided at New (the
	// default): sparse for large, sparse circuits; dense otherwise.
	FactorAuto FactorPath = iota
	// FactorDense forces the dense SoA factorization.
	FactorDense
	// FactorSparse forces the sparse factorization on circuits whose
	// pattern compiled; circuits without a sparse pattern stay dense.
	FactorSparse
)

// sparseMinN / sparseMaxFill are the FactorAuto heuristic: below a few
// dozen unknowns the dense SoA kernel's tight loops win, and a pattern
// whose L+U fills in past a quarter of n² has lost the sparsity the
// ordering was meant to preserve. BENCH_sparse.json records the measured
// dense/sparse crossover these thresholds are set from.
const (
	sparseMinN    = 64
	sparseMaxFill = 0.25
)

// Engine evaluates |H(jω)| for batches of parametric faults against one
// compiled circuit template.
type Engine struct {
	tmpl      *Template
	source    string
	output    string
	outIdx    int // -1 when the output is ground (H ≡ 0)
	amp       complex128
	ampAbs    float64   // |amp|, precomputed for the blocked path's magnitudes
	invAmpAbs float64   // 1/|amp|: the per-item divide becomes a multiply
	pool      sync.Pool // *workspace, shared across BatchResponses calls

	// scalarKernels switches the per-frequency column solver from the
	// blocked SoA kernels (the default) to the scalar complex128
	// reference path. See UseScalarKernels.
	scalarKernels bool

	// scalarSparse pins the golden sparse numeric phase to the scalar
	// one-column-at-a-time walk (the pre-supernodal baseline), disabling
	// frequency-blocked group refactorization and the supernodal panel
	// path. Benchmarks use it to attribute the supernodal win; see
	// UseScalarSparse.
	scalarSparse bool

	// refactorWorkers parallelizes single-column supernodal golden
	// refactorizations over the elimination level sets when > 1. See
	// SetRefactorWorkers.
	refactorWorkers int

	// factorPath is the golden-factorization override (FactorAuto by
	// default); sparseAuto is the heuristic verdict computed once at New.
	// See SetFactorPath.
	factorPath FactorPath
	sparseAuto bool

	// memo caches the flattened resolution of the last single-fault list
	// batched through this engine. Batch callers in tight loops (the GA
	// fitness path, per-candidate trajectory builds) pass the identical
	// fault universe on every call; a hit replaces the per-fault map
	// lookups and append churn with a handful of struct compares and flat
	// copies. Guarded by its own mutex — batches may run concurrently.
	memo resolutionMemo

	// stats counts the numeric paths batch solves take (see stats.go);
	// tracer, when installed via SetTracer, records per-frequency spans
	// on the fault-set batch path.
	stats  PathStats
	tracer *obs.Tracer
}

// resolutionMemo is the engine's cached fault resolution: the key is the
// fault list itself (value compare — fault.Fault is two words), the
// payload the flattened part groups batchInto would recompute.
type resolutionMemo struct {
	mu       sync.Mutex
	valid    bool
	faults   []fault.Fault
	off      []int
	partSlot []int
	partVal  []float64
	distinct []int
	zSlot    []int
	maxParts int
}

// lookup copies the cached resolution into out if faults matches the
// cached list element-for-element. Equal component names are usually
// pointer-equal strings (the same universe slice every call), so the
// compare is two word compares per fault — far cheaper than the map
// lookups it replaces.
func (m *resolutionMemo) lookup(faults []fault.Fault, out *Batch) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.valid || len(m.faults) != len(faults) {
		return false
	}
	for i := range faults {
		if faults[i] != m.faults[i] {
			return false
		}
	}
	out.off = sliceutil.Grow(out.off, len(m.off))
	copy(out.off, m.off)
	out.partSlot = sliceutil.Grow(out.partSlot, len(m.partSlot))
	copy(out.partSlot, m.partSlot)
	out.partVal = sliceutil.Grow(out.partVal, len(m.partVal))
	copy(out.partVal, m.partVal)
	out.distinct = sliceutil.Grow(out.distinct, len(m.distinct))
	copy(out.distinct, m.distinct)
	out.zSlot = sliceutil.Grow(out.zSlot, len(m.zSlot))
	copy(out.zSlot, m.zSlot)
	out.maxParts = m.maxParts
	return true
}

// store records out's freshly computed resolution under the faults key.
func (m *resolutionMemo) store(faults []fault.Fault, out *Batch) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.faults = append(m.faults[:0], faults...)
	m.off = append(m.off[:0], out.off...)
	m.partSlot = append(m.partSlot[:0], out.partSlot...)
	m.partVal = append(m.partVal[:0], out.partVal...)
	m.distinct = append(m.distinct[:0], out.distinct...)
	m.zSlot = append(m.zSlot[:0], out.zSlot...)
	m.maxParts = out.maxParts
	m.valid = true
}

// New compiles the circuit and binds the measurement: the named driving
// voltage source and the observed output node.
func New(c *circuit.Circuit, source, output string) (*Engine, error) {
	return newEngine(c, source, output, nil)
}

// Variant builds the engine of a circuit variant — a perturbed board, a
// fault-injected or topology-changed copy — measured at this engine's
// source and output. A variant with this engine's stamp pattern (every
// value-only change) shares its compiled sparse program, so it skips
// the symbolic analysis; any other variant is analyzed afresh. The
// variant inherits the factor-path override.
func (e *Engine) Variant(c *circuit.Circuit) (*Engine, error) {
	v, err := newEngine(c, e.source, e.output, e.tmpl)
	if err != nil {
		return nil, err
	}
	v.factorPath = e.factorPath
	return v, nil
}

// newEngine is New compiling like base (see compileLike).
func newEngine(c *circuit.Circuit, source, output string, base *Template) (*Engine, error) {
	tmpl, err := compileLike(c, base)
	if err != nil {
		return nil, err
	}
	e, ok := c.Element(source)
	if !ok {
		return nil, fmt.Errorf("engine: no source element %q", source)
	}
	vs, ok := e.(*circuit.VSource)
	if !ok {
		return nil, fmt.Errorf("engine: element %q is not a voltage source", source)
	}
	if vs.Amplitude == 0 {
		return nil, fmt.Errorf("engine: source %q has zero amplitude", source)
	}
	outIdx, err := tmpl.sys.NodeIndex(output)
	if err != nil {
		return nil, err
	}
	ampAbs := cmplx.Abs(vs.Amplitude)
	eng := &Engine{tmpl: tmpl, source: source, output: output, outIdx: outIdx, amp: vs.Amplitude, ampAbs: ampAbs, invAmpAbs: 1 / ampAbs}
	eng.sparseAuto = tmpl.sparse != nil && tmpl.n >= sparseMinN && tmpl.sparse.sym.FillRatio() <= sparseMaxFill
	// Workspaces start at O(n) and grow to the shapes they serve — the
	// distinct-slot and part counts of a batch, the sparse planes on first
	// sparse use — so a cold one-shot call pays for its own problem only;
	// callers in tight loops (the GA's fitness evaluations) then reuse the
	// grown scratch from the pool.
	eng.pool.New = func() any { return newWorkspace(tmpl) }
	return eng, nil
}

// SetFactorPath overrides the FactorAuto heuristic that picks between
// the dense and sparse golden factorization — for tests and benchmarks
// that pin one path. Must not be toggled concurrently with a running
// batch.
func (e *Engine) SetFactorPath(p FactorPath) { e.factorPath = p }

// sparseColumn reports whether the blocked column solver factors this
// engine's golden systems on the sparse path.
func (e *Engine) sparseColumn() bool {
	switch e.factorPath {
	case FactorDense:
		return false
	case FactorSparse:
		return e.tmpl.sparse != nil
	}
	return e.sparseAuto
}

// FactorPathName reports which golden factorization batch solves run on:
// "sparse" or "dense". Serving and benchmark envelopes record it so
// results say which path produced them.
func (e *Engine) FactorPathName() string {
	if e.sparseColumn() && !e.scalarKernels {
		return "sparse"
	}
	return "dense"
}

// Nodes returns the MNA system order (node voltages + branch currents).
func (e *Engine) Nodes() int { return e.tmpl.n }

// NNZ returns the structural nonzero count of the MNA pattern, or 0 when
// no sparse pattern compiled.
func (e *Engine) NNZ() int {
	if e.tmpl.sparse == nil {
		return 0
	}
	return e.tmpl.sparse.sym.NNZ()
}

// UseScalarKernels selects between the blocked SoA kernel path (false,
// the default) and the scalar complex128 reference path (true) for all
// subsequent batch calls. The scalar path is the original one-RHS-at-a-
// time implementation, kept as the reference the blocked path is pinned
// against (≤ 1e-9 relative on every built-in CUT); production callers
// never need this. Must not be toggled concurrently with a running
// batch.
func (e *Engine) UseScalarKernels(on bool) { e.scalarKernels = on }

// UseScalarSparse pins the golden sparse numeric phase to the scalar
// refactorization walk instead of the supernodal/frequency-blocked
// phase. Results are identical: the supernodal walk is pinned
// bit-identical to the scalar walk, the frequency-blocked walk is
// pinned identical under == (bit-identical except the sign of exact
// zeros — see numeric.RefactorBlock); only the numeric-phase cost
// changes. Benchmarks toggle this to attribute the supernodal speedup.
// Must not be toggled concurrently with a running batch.
func (e *Engine) UseScalarSparse(on bool) { e.scalarSparse = on }

// SetRefactorWorkers sets the worker count for parallel supernodal
// refactorization of single-column golden systems (level-set schedule
// within one refactorization; results are bit-identical at every worker
// count). n ≤ 1 — the default — refactors sequentially. Frequency
// groups of FreqBlock columns always use the blocked single-thread
// walk; the setting applies to the remainder columns and to engines
// whose batches arrive one frequency at a time. Must not be changed
// concurrently with a running batch.
func (e *Engine) SetRefactorWorkers(n int) { e.refactorWorkers = n }

// Template exposes the compiled stamp program.
func (e *Engine) Template() *Template { return e.tmpl }

// Source returns the driving source name.
func (e *Engine) Source() string { return e.source }

// Output returns the observed node name.
func (e *Engine) Output() string { return e.output }

// checkOmega rejects the frequencies the per-point analysis path rejects.
func checkOmega(omega float64) error {
	if omega < 0 {
		return fmt.Errorf("engine: negative frequency %g", omega)
	}
	if math.IsNaN(omega) || math.IsInf(omega, 0) {
		return fmt.Errorf("engine: non-finite frequency %g", omega)
	}
	return nil
}

// resolve maps a fault onto its template slot and faulted value. Golden
// faults resolve to slot -1.
func (e *Engine) resolve(f fault.Fault) (int, float64, error) {
	if f.IsGolden() {
		return -1, 0, nil
	}
	if f.Scale() <= 0 {
		return 0, 0, fmt.Errorf("engine: fault %s: deviation %+.0f%% makes the value nonpositive", f.ID(), f.Deviation*100)
	}
	i, ok := e.tmpl.byName[f.Component]
	if !ok {
		return 0, 0, fmt.Errorf("engine: fault %s: %w: no parameter slot for element %q", f.ID(), rerr.ErrUnknownComponent, f.Component)
	}
	return i, e.tmpl.slots[i].value * f.Scale(), nil
}

// Response computes |H(jω)| for one fault exactly: the template is
// patched at the fault's slot and the patched system itself solved — no
// Sherman–Morrison shortcut. This is the reference the batch path must
// agree with, and the path Dictionary.Response memoizes behind.
func (e *Engine) Response(f fault.Fault, omega float64) (float64, error) {
	return e.ResponseSet(f, omega)
}

// ResponseSet computes |H(jω)| for one fault set exactly: the template
// is patched at every part's slot and the patched system itself solved —
// no Woodbury shortcut. On the sparse factor path the patched values are
// refactored on the compiled pattern (O(fill), pooled scratch); a static
// pivot that trips the guard, and every dense engine, solve by dense
// partial-pivot LU instead. This is the exact reference the batched
// rank-k path must agree with (≤ 1e-9 relative, pinned by tests on every
// built-in CUT), and the path Dictionary.ResponseSet memoizes behind.
func (e *Engine) ResponseSet(set fault.Set, omega float64) (float64, error) {
	if err := checkOmega(omega); err != nil {
		return 0, err
	}
	parts := set.Parts()
	if err := checkDistinct(parts); err != nil {
		return 0, fmt.Errorf("engine: fault %s: %w", set.ID(), err)
	}
	for _, p := range parts {
		if _, _, err := e.resolve(p); err != nil {
			return 0, err
		}
	}
	s := complex(0, omega)
	if e.sparseColumn() {
		mag, err := e.responseSparse(parts, s)
		if err == nil {
			e.stats.SinglePointSparse.Add(1)
			return mag, nil
		}
		if !errors.Is(err, numeric.ErrSingular) {
			return 0, fmt.Errorf("engine: fault %s at ω=%g: %w", set.ID(), omega, err)
		}
	}
	m := numeric.NewMatrix(e.tmpl.n, e.tmpl.n)
	e.tmpl.stampGolden(m, s)
	for _, p := range parts {
		if si, fv, _ := e.resolve(p); si >= 0 {
			sl := &e.tmpl.slots[si]
			e.tmpl.addRank1(m, sl, sl.coeff(fv, s)-sl.coeff(sl.value, s))
		}
	}
	lu, err := numeric.FactorInPlace(m)
	if err != nil {
		return 0, fmt.Errorf("engine: fault %s at ω=%g: %w", set.ID(), omega, err)
	}
	x, err := lu.Solve(e.tmpl.b)
	if err != nil {
		return 0, fmt.Errorf("engine: fault %s at ω=%g: %w", set.ID(), omega, err)
	}
	e.stats.SinglePointDense.Add(1)
	return cmplx.Abs(e.out(x) / e.amp), nil
}

// responseSparse is ResponseSet's sparse exact solve of already-resolved
// parts: the golden planes plus each part's rank-1 delta (the dense
// path's stamp sequence), one numeric refactorization on the compiled
// pattern and one solve, all on pooled workspace storage. It returns
// ErrSingular (wrapped) when a static pivot trips the guard.
func (e *Engine) responseSparse(parts []fault.Fault, s complex128) (float64, error) {
	t := e.tmpl
	ws := e.pool.Get().(*workspace)
	defer e.pool.Put(ws)
	ws.spre, ws.spim = growPlanes(ws.spre, ws.spim, t.sparse.sym.LUNNZ())
	t.stampGoldenSparse(ws.spre, ws.spim, s)
	for _, p := range parts {
		if si, fv, _ := e.resolve(p); si >= 0 {
			sl := &t.slots[si]
			t.addRank1Sparse(ws.spre, ws.spim, si, sl.coeff(fv, s)-sl.coeff(sl.value, s))
		}
	}
	if err := ws.slus.RefactorReuse(t.sparse.sym, ws.spre, ws.spim); err != nil {
		return 0, err
	}
	if err := ws.slus.SolveInto(ws.xf, t.b); err != nil {
		return 0, err
	}
	return cmplx.Abs(e.out(ws.xf) / e.amp), nil
}

// checkDistinct rejects fault sets touching one component twice: the
// deviations would silently compose multiplicatively, which no caller
// means.
func checkDistinct(parts []fault.Fault) error {
	for i := range parts {
		for j := i + 1; j < len(parts); j++ {
			if parts[i].Component == parts[j].Component {
				return fmt.Errorf("component %q faulted twice", parts[i].Component)
			}
		}
	}
	return nil
}

// GoldenResponse computes the nominal |H(jω)|.
func (e *Engine) GoldenResponse(omega float64) (float64, error) {
	return e.Response(fault.Fault{}, omega)
}

func (e *Engine) out(x []complex128) complex128 {
	if e.outIdx < 0 {
		return 0
	}
	return x[e.outIdx]
}

// Batch is a dense response table: Mags[i][j] is |H(jω_j)| under
// faults[i], and Golden[j] is the nominal |H(jω_j)|.
//
// A Batch owns its storage and can be reused across BatchResponsesInto
// calls: the magnitude rows share one flat backing array (row headers are
// resliced, not reallocated), and the per-call fault-resolution scratch
// lives alongside it. The zero Batch is ready to use. Rows returned from
// one fill are overwritten by the next, so callers that keep results
// across fills must copy them out.
type Batch struct {
	// Omegas is the frequency axis the table was evaluated on.
	Omegas []float64
	// Golden holds the nominal magnitudes per frequency.
	Golden []float64
	// Mags holds one row per requested fault, aligned with the input.
	Mags [][]float64

	// magsFlat is the contiguous backing store behind the Mags rows: row i
	// is magsFlat[i*len(Omegas) : (i+1)*len(Omegas)].
	magsFlat []float64
	// Per-call fault-resolution scratch, reused across fills. A batch
	// item is a fault *set* of k ≥ 0 (slot, value) parts: item i's parts
	// are partSlot/partVal[off[i]:off[i+1]] (0 parts ⇒ golden, 1 ⇒ the
	// rank-1 fast path, k ≥ 2 ⇒ the Woodbury path).
	off      []int     // item index → first part; len(items)+1 entries
	partSlot []int     // flattened part slots
	partVal  []float64 // flattened faulted values
	distinct []int     // distinct slots present, in first-seen order
	zSlot    []int     // template slot → z-solve position (-1 absent)
	maxParts int       // largest part count of any item
}

// Signatures returns the fault-space points: Mags − Golden, row-aligned
// with the batch's faults.
func (b *Batch) Signatures() [][]float64 {
	out := make([][]float64, len(b.Mags))
	for i, row := range b.Mags {
		sig := make([]float64, len(row))
		for j, m := range row {
			sig[j] = m - b.Golden[j]
		}
		out[i] = sig
	}
	return out
}

// workspace is one worker's reusable scratch: stamped matrix, two
// factorization targets (golden and fallback) with their reusable LU
// headers, solution vectors, one z = A⁻¹u vector per distinct fault
// slot in the batch, and the small dense scratch of the rank-k
// capacitance solves. Everything beyond the O(n) vectors is sized by
// the problem it serves and grows on demand: slot scratch by the
// batch's distinct-slot and part counts (ensureBatch), sparse planes on
// first sparse use, dense matrices on first dense use.
type workspace struct {
	m     *numeric.Matrix // golden A(s), kept unfactored for fallbacks
	f     *numeric.Matrix // golden factorization storage
	f2    *numeric.Matrix // fallback factorization storage
	lu    numeric.LU      // golden LU header, refactored in place
	lu2   numeric.LU      // fallback LU header
	x0    []complex128    // golden solution
	xf    []complex128    // fallback solution
	rhs   []complex128    // dense u for z-solves
	z     [][]complex128  // per distinct slot
	delta []complex128    // per-part coefficient deltas of one item
	cmat  []complex128    // k×k capacitance matrix (row-major)
	wvec  []complex128    // capacitance RHS, overwritten with the solution

	// Blocked SoA kernel scratch (the default path): the golden matrix
	// and both factorization targets as split re/im planes, their LU
	// headers, and the multi-RHS block holding the golden solve plus one
	// z-solve per distinct slot — filled and swept once per frequency.
	ms   *numeric.SoAMatrix // golden A(s) planes, kept unfactored for fallbacks
	fs   *numeric.SoAMatrix // golden factorization storage
	f2s  *numeric.SoAMatrix // fallback factorization storage
	slu  numeric.SoALU      // golden SoA LU header, refactored in place
	slu2 numeric.SoALU      // fallback SoA LU header
	blk  *numeric.Block     // col 0 = x0, col 1+zi = z of distinct slot zi

	// Sparse golden path scratch (sized only when the template compiled a
	// sparse pattern): the pristine stamped golden value planes, a second
	// pair for patched fallback refactorizations, and the two sparse LU
	// headers mirroring slu/slu2. colSparse records whether the current
	// column's golden factorization is sparse; denseStamped whether ws.ms
	// holds this column's dense golden stamp (filled lazily on sparse
	// columns, only if a dense fallback needs it).
	spre, spim   []float64
	spre2, spim2 []float64
	slus         numeric.SparseLU
	slus2        numeric.SparseLU
	colSparse    bool
	denseStamped bool
	touched      []int // merged per-slot touched rows of one fallback item

	// Frequency-blocked golden refactorization: a worker claims
	// FreqBlock consecutive frequency columns, stamps their value planes
	// and refactors all of them in one interleaved supernodal-schedule
	// walk (numeric.BlockRefactorer), caching per-column factors and
	// outcomes here. sluGold points at the current column's golden
	// sparse factors — a group slot or ws.slus — so solves and partial
	// refactorizations are source-agnostic.
	bref    numeric.BlockRefactorer
	slusBlk [numeric.FreqBlock]numeric.SparseLU
	spreBlk [numeric.FreqBlock][]float64
	spimBlk [numeric.FreqBlock][]float64
	grpErr  [numeric.FreqBlock]error
	grpJ0   int // first batch column of the cached group; -1 when none
	grpLen  int // columns in the cached group
	sluGold *numeric.SparseLU

	// Per-column per-distinct-slot precomputes (indexed by z position):
	// every deviation of a component shares its slot, so the slot-only
	// factors of the Sherman–Morrison correction are hoisted out of the
	// per-item loop — computed once per frequency, reused ~|deviations|
	// times.
	vtz    []complex128 // vᵀz for the slot's own z column
	vtx0   []complex128 // vᵀx0
	zoutc  []complex128 // z[outIdx]
	gcoeff []complex128 // golden coefficient sl.coeff(sl.value, s)

	// Column-local path counters (plain ints — the per-item loops must
	// not touch shared cache lines), flushed to Engine.stats once per
	// column by solveColumn.
	cDense         int64
	cSparse        int64
	cRank1         int64
	cRankK         int64
	cFallback      int64
	cSupernodal    int64
	cPartial       int64
	cPartialCols   int64
	cDenseExact    int64
	cDenseSingular int64
}

func newWorkspace(t *Template) *workspace {
	n := t.n
	ws := &workspace{
		x0:    make([]complex128, n),
		xf:    make([]complex128, n),
		rhs:   make([]complex128, n),
		blk:   new(numeric.Block),
		grpJ0: -1,
	}
	if t.sparse == nil {
		// Dense-only engines factor n×n every column; sparse-capable
		// engines allocate the six dense matrices lazily, only if a
		// column actually falls back — a thousand-node grid would
		// otherwise pin hundreds of megabytes per worker it never uses.
		ws.ensureScalarDense(n)
		ws.ensureSoADense(n)
	}
	return ws
}

// getWorkspace takes a pooled workspace sized for out's resolved batch.
func (e *Engine) getWorkspace(out *Batch) *workspace {
	ws := e.pool.Get().(*workspace)
	ws.ensureBatch(e.tmpl.n, len(out.distinct), out.maxParts, e.scalarKernels)
	ws.grpJ0, ws.grpLen = -1, 0
	return ws
}

// ensureBatch grows the slot scratch to nd distinct slots and items of
// up to k parts; the scalar path's z vectors only when scalar is set.
// Once grown, repeat batch shapes reslice without allocating.
func (ws *workspace) ensureBatch(n, nd, k int, scalar bool) {
	ws.vtz = sliceutil.Grow(ws.vtz, nd)
	ws.vtx0 = sliceutil.Grow(ws.vtx0, nd)
	ws.zoutc = sliceutil.Grow(ws.zoutc, nd)
	ws.gcoeff = sliceutil.Grow(ws.gcoeff, nd)
	ws.delta = sliceutil.Grow(ws.delta, k)
	ws.wvec = sliceutil.Grow(ws.wvec, k)
	ws.cmat = sliceutil.Grow(ws.cmat, k*k)
	for scalar && len(ws.z) < nd {
		ws.z = append(ws.z, make([]complex128, n))
	}
}

// growPlanes sizes a re/im value-plane pair to n entries, reallocating
// only when the capacity is short (contents unspecified).
func growPlanes(re, im []float64, n int) ([]float64, []float64) {
	return sliceutil.Grow(re, n), sliceutil.Grow(im, n)
}

// ensureScalarDense sizes the scalar-path golden/fallback dense
// matrices on first use.
func (ws *workspace) ensureScalarDense(n int) {
	if ws.m == nil {
		ws.m = numeric.NewMatrix(n, n)
		ws.f = numeric.NewMatrix(n, n)
		ws.f2 = numeric.NewMatrix(n, n)
	}
}

// ensureSoADense sizes the blocked-path dense SoA matrices on first
// use (a dense golden column or a dense exact fallback).
func (ws *workspace) ensureSoADense(n int) {
	if ws.ms == nil {
		ws.ms = numeric.NewSoAMatrix(n, n)
		ws.fs = numeric.NewSoAMatrix(n, n)
		ws.f2s = numeric.NewSoAMatrix(n, n)
	}
}

func sparseDot(v []sparseEntry, x []complex128) complex128 {
	var s complex128
	for _, e := range v {
		s += e.w * x[e.idx]
	}
	return s
}

// BatchResponses fills the dense [fault][omega] response table. Per
// frequency the golden system is factored once; every fault is then
// solved by a rank-1 Sherman–Morrison update against that factorization,
// with a full refactorization fallback for ill-conditioned updates.
// Frequencies fan out over workers goroutines (≤0 → runtime.NumCPU()),
// each with its own preallocated workspace.
//
// The context is checked before every frequency column, so a canceled
// context stops the batch within one in-flight column per worker and the
// call returns an error wrapping rerr.ErrCanceled. A nil context is
// treated as context.Background(). The worker count and cancellation
// machinery never affect computed values: each column is solved
// independently in a self-contained workspace.
func (e *Engine) BatchResponses(ctx context.Context, faults []fault.Fault, omegas []float64, workers int) (*Batch, error) {
	return e.BatchResponsesProgress(ctx, faults, omegas, workers, nil)
}

// BatchResponsesProgress is BatchResponses with a per-frequency progress
// hook: progress(done, total) is called after each solved column. With
// multiple workers the hook runs concurrently from worker goroutines and
// must be safe for that; done is a cumulative count, not a column index.
func (e *Engine) BatchResponsesProgress(ctx context.Context, faults []fault.Fault, omegas []float64, workers int, progress func(done, total int)) (*Batch, error) {
	out := &Batch{}
	if err := e.batchInto(ctx, faults, nil, omegas, workers, progress, out); err != nil {
		return nil, err
	}
	return out, nil
}

// BatchResponsesInto is BatchResponses writing into a caller-owned Batch:
// out's storage is reused when large enough, so a Batch held across calls
// makes the steady state allocation-free. This is the GA fitness path,
// where every candidate test vector fills the same table shape thousands
// of times. Results are identical to BatchResponses.
func (e *Engine) BatchResponsesInto(ctx context.Context, faults []fault.Fault, omegas []float64, workers int, out *Batch) error {
	return e.batchInto(ctx, faults, nil, omegas, workers, nil, out)
}

// BatchResponsesSets is the rank-k generalization of BatchResponses: row
// i of the table holds |H(jω)| under every part of sets[i] applied
// simultaneously. Per frequency the golden system is still factored
// once and one z-solve performed per distinct slot; a k-part item then
// costs one k×k Sherman–Morrison–Woodbury capacitance solve against
// those shared vectors, with the same full-refactorization fallback the
// rank-1 path uses when the update is ill-conditioned. Single-part items
// take the rank-1 fast path unchanged, so mixing single and multiple
// faults in one batch costs nothing extra. Concurrency and cancellation
// semantics match BatchResponses.
func (e *Engine) BatchResponsesSets(ctx context.Context, sets []fault.Set, omegas []float64, workers int) (*Batch, error) {
	out := &Batch{}
	if err := e.batchInto(ctx, nil, sets, omegas, workers, nil, out); err != nil {
		return nil, err
	}
	return out, nil
}

// BatchResponsesSetsInto is BatchResponsesSets writing into a
// caller-owned Batch (see BatchResponsesInto for the reuse contract).
func (e *Engine) BatchResponsesSetsInto(ctx context.Context, sets []fault.Set, omegas []float64, workers int, out *Batch) error {
	return e.batchInto(ctx, nil, sets, omegas, workers, nil, out)
}

// itemID names batch item i for error reporting; exactly one of faults
// and sets is non-nil.
func itemID(faults []fault.Fault, sets []fault.Set, i int) string {
	if sets != nil {
		return sets[i].ID()
	}
	return faults[i].ID()
}

// resolveBatch fills out's flattened fault-resolution scratch for the
// batch items: part groups (off/partSlot/partVal) and the distinct-slot
// index (distinct/zSlot). The single-fault form presizes its append
// targets so a cold Batch takes one allocation per array instead of
// doubling growth churn.
func (e *Engine) resolveBatch(faults []fault.Fault, sets []fault.Set, out *Batch) error {
	nitems := len(faults)
	if sets != nil {
		nitems = len(sets)
	}
	out.off = sliceutil.Grow(out.off, nitems+1)
	out.off[0] = 0
	if sets == nil {
		out.partSlot = sliceutil.Grow(out.partSlot, len(faults))[:0]
		out.partVal = sliceutil.Grow(out.partVal, len(faults))[:0]
		for i, f := range faults {
			si, fv, err := e.resolve(f)
			if err != nil {
				return err
			}
			if si >= 0 {
				out.partSlot = append(out.partSlot, si)
				out.partVal = append(out.partVal, fv)
			}
			out.off[i+1] = len(out.partSlot)
		}
	} else {
		out.partSlot = out.partSlot[:0]
		out.partVal = out.partVal[:0]
		for i, set := range sets {
			parts := set.Parts()
			if err := checkDistinct(parts); err != nil {
				return fmt.Errorf("engine: fault %s: %w", set.ID(), err)
			}
			for _, p := range parts {
				si, fv, err := e.resolve(p)
				if err != nil {
					return err
				}
				if si >= 0 {
					out.partSlot = append(out.partSlot, si)
					out.partVal = append(out.partVal, fv)
				}
			}
			out.off[i+1] = len(out.partSlot)
		}
	}
	out.maxParts = 0
	for i := 0; i < nitems; i++ {
		out.maxParts = max(out.maxParts, out.off[i+1]-out.off[i])
	}
	// Distinct slots present in the batch get one z-solve per frequency.
	out.zSlot = sliceutil.Grow(out.zSlot, len(e.tmpl.slots))
	for i := range out.zSlot {
		out.zSlot[i] = -1
	}
	out.distinct = sliceutil.Grow(out.distinct, len(e.tmpl.slots))[:0]
	for _, si := range out.partSlot {
		if out.zSlot[si] < 0 {
			out.zSlot[si] = len(out.distinct)
			out.distinct = append(out.distinct, si)
		}
	}
	return nil
}

// batchInto fills out with the dense response table, reusing its
// storage. Exactly one of faults and sets is non-nil; the single-fault
// form resolves without touching the Set interface (no boxing), which
// keeps the GA fitness path allocation-free.
func (e *Engine) batchInto(ctx context.Context, faults []fault.Fault, sets []fault.Set, omegas []float64, workers int, progress func(done, total int), out *Batch) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(omegas) == 0 {
		return fmt.Errorf("engine: empty frequency list")
	}
	for _, w := range omegas {
		if err := checkOmega(w); err != nil {
			return err
		}
	}
	nitems := len(faults)
	if sets != nil {
		nitems = len(sets)
	}
	// Resolve every item up front into flattened (slot, value) part
	// groups: item i owns parts off[i]..off[i+1]. Single-fault lists hit
	// the engine's resolution memo when they repeat — the GA fitness loop
	// and per-candidate trajectory builds pass the identical universe on
	// every call.
	memoHit := false
	if sets == nil {
		memoHit = e.memo.lookup(faults, out)
		if memoHit {
			e.stats.MemoHits.Add(1)
		} else {
			e.stats.MemoMisses.Add(1)
		}
	}
	if !memoHit {
		if err := e.resolveBatch(faults, sets, out); err != nil {
			return err
		}
		if sets == nil {
			e.memo.store(faults, out)
		}
	}

	out.Omegas = append(out.Omegas[:0], omegas...)
	out.Golden = sliceutil.Grow(out.Golden, len(omegas))
	nw := len(omegas)
	out.magsFlat = sliceutil.Grow(out.magsFlat, nitems*nw)
	out.Mags = sliceutil.Grow(out.Mags, nitems)
	for i := range out.Mags {
		out.Mags[i] = out.magsFlat[i*nw : (i+1)*nw : (i+1)*nw]
	}

	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	// Workers claim whole frequency groups (FreqBlock consecutive
	// columns refactored in one blocked walk on the sparse path, single
	// columns otherwise), so the useful worker count is the group count.
	unit := 1
	if !e.scalarKernels && e.sparseColumn() && !e.scalarSparse {
		unit = numeric.FreqBlock
	}
	groups := (len(omegas) + unit - 1) / unit
	if workers > groups {
		workers = groups
	}

	// The progress closure (and the counter it captures) is only built
	// when a hook is set: the GA fitness path runs without one, and the
	// escape to the heap would cost two allocations per call.
	total := len(omegas)
	var report func()
	if progress != nil {
		var done atomic.Int64
		report = func() { progress(int(done.Add(1)), total) }
	}

	if workers == 1 {
		// Inline path: no goroutine or channel overhead for the common
		// small batches (a GA candidate is k=2 frequencies).
		ws := e.getWorkspace(out)
		defer e.pool.Put(ws)
		for g := 0; g < len(omegas); g += unit {
			hi := g + unit
			if hi > len(omegas) {
				hi = len(omegas)
			}
			e.prepareGroup(ws, omegas, g, hi)
			for j := g; j < hi; j++ {
				if err := ctx.Err(); err != nil {
					return rerr.Canceled(err)
				}
				if err := e.solveColumn(ws, omegas[j], faults, sets, out, j); err != nil {
					return err
				}
				if report != nil {
					report()
				}
			}
		}
		return nil
	}
	return e.batchParallel(ctx, faults, sets, omegas, workers, unit, report, out)
}

// batchParallel is batchInto's worker-pool branch. It lives in its own
// function so its goroutine closures capture this frame's variables, not
// batchInto's: escape analysis is flow-insensitive, and keeping the
// captures here is what lets the single-worker GA path run without ctx
// or progress state escaping to the heap.
func (e *Engine) batchParallel(ctx context.Context, faults []fault.Fault, sets []fault.Set, omegas []float64, workers, unit int, report func(), out *Batch) error {
	jobs := make(chan int)
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := e.getWorkspace(out)
			defer e.pool.Put(ws)
			for g := range jobs {
				if ctx.Err() != nil {
					continue // drain without solving so the producer never blocks
				}
				hi := g + unit
				if hi > len(omegas) {
					hi = len(omegas)
				}
				e.prepareGroup(ws, omegas, g, hi)
				for j := g; j < hi; j++ {
					if err := e.solveColumn(ws, omegas[j], faults, sets, out, j); err != nil {
						select {
						case errs <- err:
						default:
						}
						// Keep draining so the producer never blocks.
						for range jobs {
						}
						return
					}
					if report != nil {
						report()
					}
				}
			}
		}()
	}
feed:
	for g := 0; g < len(omegas); g += unit {
		select {
		case jobs <- g:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	// A genuine solve error outranks cancellation: workers never push
	// cancellation into errs, so anything there is a deterministic
	// failure the caller must see (retrying on ErrCanceled would loop).
	select {
	case err := <-errs:
		return err
	default:
	}
	if err := ctx.Err(); err != nil {
		return rerr.Canceled(err)
	}
	return nil
}

// solveColumn fills column j of the batch table: one golden
// factorization, one z-solve per distinct slot, then O(k²·n_sparse + k³)
// work per k-part item (O(1) for the dominant rank-1 case). The
// item-resolution scratch (off, partSlot, partVal, distinct, zSlot) is
// read from out, where batchInto prepared it. The work runs on the
// blocked SoA kernels by default; UseScalarKernels(true) routes it
// through the original scalar complex128 reference implementation.
func (e *Engine) solveColumn(ws *workspace, omega float64, faults []fault.Fault, sets []fault.Set, out *Batch, j int) error {
	// Path counters accumulate in the workspace for the column and flush
	// to the shared atomics once at the end — including error returns, so
	// partially solved columns are still attributed. Spans are recorded
	// on the fault-set path only (see SetTracer); the single-fault GA
	// fitness path pays one nil check here and nothing else.
	if tr := e.tracer; tr != nil && sets != nil {
		defer tr.StartSpan("engine.column").End()
	}
	ws.cDense, ws.cSparse, ws.cRank1, ws.cRankK, ws.cFallback = 0, 0, 0, 0, 0
	ws.cSupernodal, ws.cPartial, ws.cPartialCols, ws.cDenseExact, ws.cDenseSingular = 0, 0, 0, 0, 0
	var err error
	if e.scalarKernels {
		err = e.solveColumnScalar(ws, omega, faults, sets, out, j)
	} else {
		err = e.solveColumnBlocked(ws, omega, faults, sets, out, j)
	}
	e.stats.flush(ws)
	return err
}

// solveColumnScalar is the scalar complex128 reference implementation
// of solveColumn: one golden factorization and k+1 sequential one-RHS
// triangular solves per frequency.
func (e *Engine) solveColumnScalar(ws *workspace, omega float64, faults []fault.Fault, sets []fault.Set, out *Batch, j int) error {
	s := complex(0, omega)
	t := e.tmpl
	ws.ensureScalarDense(t.n)
	t.stampGolden(ws.m, s)
	if err := ws.f.CopyFrom(ws.m); err != nil {
		return err
	}
	if err := numeric.FactorReuse(&ws.lu, ws.f); err != nil {
		return fmt.Errorf("engine: golden system at ω=%g: %w", omega, err)
	}
	ws.cDense++
	lu := &ws.lu
	if err := lu.SolveInto(ws.x0, t.b); err != nil {
		return err
	}
	x0out := e.out(ws.x0)
	out.Golden[j] = cmplx.Abs(x0out / e.amp)

	for zi, si := range out.distinct {
		for i := range ws.rhs {
			ws.rhs[i] = 0
		}
		for _, ue := range t.slots[si].u {
			ws.rhs[ue.idx] = ue.w
		}
		if err := lu.SolveInto(ws.z[zi], ws.rhs); err != nil {
			return err
		}
	}

	for fi := range out.Mags {
		lo, hi := out.off[fi], out.off[fi+1]
		if lo == hi {
			out.Mags[fi][j] = out.Golden[j]
			continue
		}
		if hi-lo > 1 {
			if err := e.solveItemK(ws, s, omega, faults, sets, out, fi, j, x0out); err != nil {
				return err
			}
			continue
		}
		si := out.partSlot[lo]
		sl := &t.slots[si]
		delta := sl.coeff(out.partVal[lo], s) - sl.coeff(sl.value, s)
		if delta == 0 {
			out.Mags[fi][j] = out.Golden[j]
			continue
		}
		z := ws.z[out.zSlot[si]]
		ws.cRank1++
		vtz := sparseDot(sl.v, z)
		den := 1 + delta*vtz
		var zout complex128
		if e.outIdx >= 0 {
			zout = z[e.outIdx]
		}
		xout := x0out - delta*sparseDot(sl.v, ws.x0)/den*zout
		if cmplx.Abs(den) < denGuard*(1+cmplx.Abs(delta*vtz)) ||
			cmplx.Abs(xout) < cancelGuard*cmplx.Abs(x0out) {
			// Ill-conditioned update or catastrophic cancellation: solve
			// the faulted system exactly.
			ws.cFallback++
			if err := ws.f2.CopyFrom(ws.m); err != nil {
				return err
			}
			t.addRank1(ws.f2, sl, delta)
			if err := numeric.FactorReuse(&ws.lu2, ws.f2); err != nil {
				return fmt.Errorf("engine: fault %s at ω=%g: %w", itemID(faults, sets, fi), omega, err)
			}
			ws.cDense++
			if err := ws.lu2.SolveInto(ws.xf, t.b); err != nil {
				return err
			}
			xout = e.out(ws.xf)
		}
		out.Mags[fi][j] = cmplx.Abs(xout / e.amp)
	}
	return nil
}

// solveItemK solves one k ≥ 2 part item of column j by the
// Sherman–Morrison–Woodbury identity. With the update written as
// Σ_a δ_a u_a v_aᵀ, the corrected solution is
//
//	x = x₀ − Z w,   (I_k + diag(δ) Vᵀ Z) w = diag(δ) Vᵀ x₀,
//
// where column b of Z is the already-computed z_b = A⁻¹ u_b shared with
// every other item touching slot b. Only the k×k capacitance system is
// new work. An ill-conditioned capacitance matrix (small pivot) or a
// catastrophic cancellation in the output falls back to an exact
// refactorization of the patched system — the same guards, and the same
// fallback, as the rank-1 path.
func (e *Engine) solveItemK(ws *workspace, s complex128, omega float64, faults []fault.Fault, sets []fault.Set, out *Batch, fi, j int, x0out complex128) error {
	t := e.tmpl
	lo, hi := out.off[fi], out.off[fi+1]
	k := hi - lo
	anyDelta := false
	for a := 0; a < k; a++ {
		sl := &t.slots[out.partSlot[lo+a]]
		d := sl.coeff(out.partVal[lo+a], s) - sl.coeff(sl.value, s)
		ws.delta[a] = d
		if d != 0 {
			anyDelta = true
		}
	}
	if !anyDelta {
		out.Mags[fi][j] = out.Golden[j]
		return nil
	}
	ws.cRankK++
	cm := ws.cmat[:k*k]
	w := ws.wvec[:k]
	for a := 0; a < k; a++ {
		sl := &t.slots[out.partSlot[lo+a]]
		w[a] = ws.delta[a] * sparseDot(sl.v, ws.x0)
		for b := 0; b < k; b++ {
			v := ws.delta[a] * sparseDot(sl.v, ws.z[out.zSlot[out.partSlot[lo+b]]])
			if a == b {
				v++
			}
			cm[a*k+b] = v
		}
	}
	xout := x0out
	ok := solveSmall(k, cm, w)
	if ok && e.outIdx >= 0 {
		for b := 0; b < k; b++ {
			xout -= w[b] * ws.z[out.zSlot[out.partSlot[lo+b]]][e.outIdx]
		}
	}
	if !ok || cmplx.Abs(xout) < cancelGuard*cmplx.Abs(x0out) {
		ws.cFallback++
		if err := ws.f2.CopyFrom(ws.m); err != nil {
			return err
		}
		for a := 0; a < k; a++ {
			t.addRank1(ws.f2, &t.slots[out.partSlot[lo+a]], ws.delta[a])
		}
		if err := numeric.FactorReuse(&ws.lu2, ws.f2); err != nil {
			return fmt.Errorf("engine: fault %s at ω=%g: %w", itemID(faults, sets, fi), omega, err)
		}
		ws.cDense++
		if err := ws.lu2.SolveInto(ws.xf, t.b); err != nil {
			return err
		}
		xout = e.out(ws.xf)
	}
	out.Mags[fi][j] = cmplx.Abs(xout / e.amp)
	return nil
}

// solveSmall solves the k×k dense complex system m·x = r in place
// (row-major m; r is overwritten with the solution) by Gaussian
// elimination with partial pivoting. It reports false — leaving the
// caller to fall back to an exact solve — when a pivot falls below
// denGuard relative to the matrix magnitude, the analogue of the rank-1
// denominator guard.
func solveSmall(k int, m, r []complex128) bool {
	var norm float64
	for _, v := range m {
		if a := cmplx.Abs(v); a > norm {
			norm = a
		}
	}
	if norm == 0 {
		return false
	}
	for col := 0; col < k; col++ {
		p, pa := col, cmplx.Abs(m[col*k+col])
		for row := col + 1; row < k; row++ {
			if a := cmplx.Abs(m[row*k+col]); a > pa {
				p, pa = row, a
			}
		}
		if pa < denGuard*norm {
			return false
		}
		if p != col {
			for c := col; c < k; c++ {
				m[p*k+c], m[col*k+c] = m[col*k+c], m[p*k+c]
			}
			r[p], r[col] = r[col], r[p]
		}
		inv := 1 / m[col*k+col]
		for row := col + 1; row < k; row++ {
			f := m[row*k+col] * inv
			if f == 0 {
				continue
			}
			for c := col + 1; c < k; c++ {
				m[row*k+c] -= f * m[col*k+c]
			}
			r[row] -= f * r[col]
		}
	}
	for row := k - 1; row >= 0; row-- {
		v := r[row]
		for c := row + 1; c < k; c++ {
			v -= m[row*k+c] * r[c]
		}
		r[row] = v / m[row*k+row]
	}
	return true
}
