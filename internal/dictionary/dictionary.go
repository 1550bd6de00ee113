// Package dictionary implements the paper's fault-simulation (FS) step:
// from the golden circuit it derives the faulty AC magnitude responses of
// every fault in the universe and serves them on demand, memoized by
// (fault, frequency).
//
// Responses are computed by the batched solver in internal/engine: the
// golden circuit is compiled once into a stamp template, a fault is a
// rank-1 coefficient patch (a k-component multiple fault a rank-k one),
// and whole (fault × frequency) grids are filled with one golden
// factorization per frequency. The GA probes
// responses at arbitrary candidate frequencies, so the dictionary
// evaluates lazily instead of precomputing a fixed grid; a fixed grid can
// still be precomputed with BuildGrid for reporting (Figure 1) or export.
package dictionary

import (
	"context"
	"encoding/json"
	"fmt"
	"math/cmplx"
	"sort"
	"sync"

	"repro/internal/analysis"
	"repro/internal/circuit"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/sliceutil"
)

// MemoLimit bounds the response memo: once this many (fault, ω) pairs
// are cached, further responses are computed but not stored. Grid builds
// (tens of faults × hundreds of frequencies) fit comfortably; what the
// bound prevents is a long-running probe workload growing the memo
// without limit. The GA fitness path bypasses the memo entirely (see
// SignaturesInto), so it neither grows it nor contends on its mutex.
const MemoLimit = 1 << 16

// Dictionary serves golden and faulty magnitude responses.
type Dictionary struct {
	golden   *circuit.Circuit
	source   string
	output   string
	universe *fault.Universe
	faults   []fault.Fault // universe.Faults(), computed once; treated immutable
	eng      *engine.Engine

	mu        sync.Mutex
	analyzers map[string]*analysis.AC        // fault ID → analyzer, scalar reference path only
	memo      map[string]map[float64]float64 // fault ID → ω → |H|
	memoSize  int                            // total (fault, ω) pairs stored
}

// New builds a dictionary for the golden circuit observed at output and
// driven by the named source, over the given fault universe.
func New(golden *circuit.Circuit, source, output string, u *fault.Universe) (*Dictionary, error) {
	if u == nil {
		return nil, fmt.Errorf("dictionary: nil universe")
	}
	if err := u.Validate(golden); err != nil {
		return nil, err
	}
	d := &Dictionary{
		golden:    golden.Clone(),
		source:    source,
		output:    output,
		universe:  u,
		faults:    u.Faults(),
		analyzers: make(map[string]*analysis.AC),
		memo:      make(map[string]map[float64]float64),
	}
	// Compiling the template fails fast on unbuildable golden circuits and
	// unusable measurements (missing source, zero amplitude).
	eng, err := engine.New(d.golden, source, output)
	if err != nil {
		return nil, fmt.Errorf("dictionary: %w", err)
	}
	d.eng = eng
	return d, nil
}

// Engine exposes the batched solver the dictionary computes with.
func (d *Dictionary) Engine() *engine.Engine { return d.eng }

// Universe returns the dictionary's fault universe.
func (d *Dictionary) Universe() *fault.Universe { return d.universe }

// Source returns the driving source name.
func (d *Dictionary) Source() string { return d.source }

// Output returns the observed node name.
func (d *Dictionary) Output() string { return d.output }

// Golden returns a clone of the golden circuit.
func (d *Dictionary) Golden() *circuit.Circuit { return d.golden.Clone() }

// analyzer returns (building if needed) the AC analyzer for a fault —
// the classic clone+assemble path kept as the scalar reference.
func (d *Dictionary) analyzer(f fault.Fault) (*analysis.AC, error) {
	id := f.ID()
	d.mu.Lock()
	ac, ok := d.analyzers[id]
	d.mu.Unlock()
	if ok {
		return ac, nil
	}
	// Build outside the lock: cloning and assembling may be slow.
	faulty, err := f.Apply(d.golden)
	if err != nil {
		return nil, err
	}
	ac, err = analysis.NewAC(faulty)
	if err != nil {
		return nil, fmt.Errorf("dictionary: fault %s: %w", id, err)
	}
	d.mu.Lock()
	// Another goroutine may have raced us; keep the first.
	if prev, ok := d.analyzers[id]; ok {
		ac = prev
	} else {
		d.analyzers[id] = ac
	}
	d.mu.Unlock()
	return ac, nil
}

// ScalarResponse computes |H(jω)| the pre-engine way: clone the golden
// circuit, inject the fault, assemble and factor a fresh MNA system.
// It is unmemoized (only the assembled analyzer is cached per fault) and
// exists as the reference implementation the engine is verified against
// and benchmarked in BenchmarkBatchVsScalar.
func (d *Dictionary) ScalarResponse(f fault.Fault, omega float64) (float64, error) {
	ac, err := d.analyzer(f)
	if err != nil {
		return 0, err
	}
	h, err := ac.Transfer(d.source, d.output, omega)
	if err != nil {
		return 0, fmt.Errorf("dictionary: fault %s at ω=%g: %w", f.ID(), omega, err)
	}
	return cmplx.Abs(h), nil
}

// Response returns |H(jω)| for the given fault (use the zero Fault for
// the golden circuit). Results are memoized up to MemoLimit pairs.
//
// Lazy queries solve the patched system exactly (Engine.ResponseSet: a
// sparse refactorization on the compiled pattern for sparse engines,
// dense LU otherwise); BuildGrid fills the same memo through the batched
// Sherman–Morrison path. The two are different arithmetic that agree to
// within 1e-9 relative error (enforced by the engine's fallback guards
// and tests), so a memo entry's last few ulps depend on which of the two
// computed it first — callers comparing exports bit-for-bit should
// produce them through the same call sequence.
func (d *Dictionary) Response(f fault.Fault, omega float64) (float64, error) {
	return d.ResponseSet(f, omega)
}

// ResponseSet is Response over an arbitrary fault set — golden, single,
// or multiple fault. Memo keys are the set's stable ID, so single-fault
// entries are shared with Response and a multi-fault grid coexists with
// the single-fault one in the same memo.
func (d *Dictionary) ResponseSet(set fault.Set, omega float64) (float64, error) {
	id := set.ID()
	d.mu.Lock()
	if byW, ok := d.memo[id]; ok {
		if v, ok := byW[omega]; ok {
			d.mu.Unlock()
			return v, nil
		}
	}
	d.mu.Unlock()

	mag, err := d.eng.ResponseSet(set, omega)
	if err != nil {
		return 0, fmt.Errorf("dictionary: %w", err)
	}

	d.mu.Lock()
	d.memoize(id, omega, mag)
	d.mu.Unlock()
	return mag, nil
}

// memoize stores one response; the caller holds d.mu. Once the memo
// holds MemoLimit pairs, new entries are dropped (existing entries keep
// serving lookups), so an unbounded stream of distinct probe frequencies
// cannot grow the memo without limit.
func (d *Dictionary) memoize(id string, omega, mag float64) {
	byW, ok := d.memo[id]
	if !ok {
		if d.memoSize >= MemoLimit {
			return
		}
		byW = make(map[float64]float64)
		d.memo[id] = byW
	}
	if _, ok := byW[omega]; !ok {
		if d.memoSize >= MemoLimit {
			return
		}
		d.memoSize++
	}
	byW[omega] = mag
}

// GoldenResponse returns the nominal |H(jω)|.
func (d *Dictionary) GoldenResponse(omega float64) (float64, error) {
	return d.Response(fault.Fault{}, omega)
}

// Signature maps a fault to its point in the test-vector space: the
// vector of |H_fault(ωi)| − |H_golden(ωi)| over the test frequencies.
// Per the paper's simplification, the golden response sits at the origin.
func (d *Dictionary) Signature(f fault.Fault, omegas []float64) ([]float64, error) {
	return d.SignatureSet(f, omegas)
}

// SignatureSet is Signature over an arbitrary fault set (memoized, like
// ResponseSet).
func (d *Dictionary) SignatureSet(set fault.Set, omegas []float64) ([]float64, error) {
	if len(omegas) == 0 {
		return nil, fmt.Errorf("dictionary: empty test vector")
	}
	out := make([]float64, len(omegas))
	for i, w := range omegas {
		fm, err := d.ResponseSet(set, w)
		if err != nil {
			return nil, err
		}
		gm, err := d.GoldenResponse(w)
		if err != nil {
			return nil, err
		}
		out[i] = fm - gm
	}
	return out, nil
}

// CircuitSignature computes the signature point of an arbitrary circuit
// variant — a multiple fault, a tolerance-perturbed board, anything with
// the same source and output — against this dictionary's golden
// response. The variant is compiled into its own engine (see
// engine.Engine.Variant: a value-only variant shares the golden
// symbolic analysis) and solved exactly per frequency. Unlike Signature
// it is not memoized (variants are one-off).
func (d *Dictionary) CircuitSignature(c *circuit.Circuit, omegas []float64) ([]float64, error) {
	if len(omegas) == 0 {
		return nil, fmt.Errorf("dictionary: empty test vector")
	}
	v, err := d.eng.Variant(c)
	if err != nil {
		return nil, fmt.Errorf("dictionary: variant: %w", err)
	}
	out := make([]float64, len(omegas))
	for i, w := range omegas {
		h, err := v.GoldenResponse(w)
		if err != nil {
			return nil, fmt.Errorf("dictionary: variant: %w", err)
		}
		gm, err := d.GoldenResponse(w)
		if err != nil {
			return nil, err
		}
		out[i] = h - gm
	}
	return out, nil
}

// BuildGrid precomputes every fault's response (plus the golden one) on a
// frequency grid via the batched engine, fanning the frequencies out
// across workers goroutines (0 → one per CPU). Results land in the memo,
// so subsequent Response/Signature/Snapshot calls on grid points are pure
// lookups. It returns the first error encountered; a canceled context
// stops within one in-flight frequency per worker (the error wraps
// rerr.ErrCanceled) and leaves the memo untouched.
func (d *Dictionary) BuildGrid(ctx context.Context, omegas []float64, workers int) error {
	return d.BuildGridProgress(ctx, omegas, workers, nil)
}

// BuildGridProgress is BuildGrid with a per-frequency progress hook (see
// engine.BatchResponsesProgress for the hook's concurrency contract).
func (d *Dictionary) BuildGridProgress(ctx context.Context, omegas []float64, workers int, progress func(done, total int)) error {
	faults := d.faults
	batch, err := d.eng.BatchResponsesProgress(ctx, faults, omegas, workers, progress)
	if err != nil {
		return fmt.Errorf("dictionary: %w", err)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for j, w := range omegas {
		d.memoize("golden", w, batch.Golden[j])
	}
	for i, f := range faults {
		id := f.ID()
		for j, w := range omegas {
			d.memoize(id, w, batch.Mags[i][j])
		}
	}
	return nil
}

// BuildGridSets precomputes the responses of arbitrary fault sets (plus
// the golden row) on a frequency grid via the batched rank-k engine and
// lands them in the memo under each set's ID — the multi-fault analogue
// of BuildGrid, used to extend a dictionary grid with a double-fault
// universe before Snapshot. Cancellation semantics match BuildGrid.
func (d *Dictionary) BuildGridSets(ctx context.Context, sets []fault.Set, omegas []float64, workers int) error {
	batch, err := d.eng.BatchResponsesSets(ctx, sets, omegas, workers)
	if err != nil {
		return fmt.Errorf("dictionary: %w", err)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for j, w := range omegas {
		d.memoize("golden", w, batch.Golden[j])
	}
	for i, set := range sets {
		id := set.ID()
		for j, w := range omegas {
			d.memoize(id, w, batch.Mags[i][j])
		}
	}
	return nil
}

// SignatureScratch owns the reusable storage behind the memo-bypassing
// SignaturesInto/UniverseSignaturesInto paths: the engine batch and the
// signature rows (headers resliced over one flat backing array). The zero
// value is ready to use. A scratch is single-use at a time — callers that
// evaluate concurrently hold one scratch per goroutine.
type SignatureScratch struct {
	batch engine.Batch
	rows  [][]float64
	flat  []float64
}

// Signatures computes the signature points of an arbitrary fault list at
// the given test frequencies in one batched solve — the bulk analogue of
// Signature. Row i is |H_fault[i](ω)| − |H_golden(ω)| over omegas.
// Unlike Signature it does not touch the memo: bulk probe grids (GA
// candidates, hold-out trials) are one-off and would only bloat it.
func (d *Dictionary) Signatures(ctx context.Context, faults []fault.Fault, omegas []float64) ([][]float64, error) {
	var s SignatureScratch
	rows, err := d.SignaturesInto(ctx, faults, omegas, &s)
	if err != nil {
		return nil, err
	}
	return rows, nil // the scratch is fresh, so the rows are not shared
}

// SignaturesInto is Signatures writing into caller-owned scratch: the
// returned rows alias the scratch and stay valid until its next use, so a
// scratch held across calls makes the steady state allocation-free. This
// is the GA fitness path, which probes one-shot frequency vectors per
// candidate and must neither grow the response memo nor contend on its
// mutex — the memo is bypassed entirely.
//
// The solve runs inline on the calling goroutine: test vectors are a
// handful of frequencies, and the heavy caller — the GA's fitness
// evaluation — is already parallel at the population level, so a nested
// per-call worker pool would only oversubscribe the CPUs. The context is
// checked before each frequency; cancellation errors wrap
// rerr.ErrCanceled.
func (d *Dictionary) SignaturesInto(ctx context.Context, faults []fault.Fault, omegas []float64, s *SignatureScratch) ([][]float64, error) {
	if len(omegas) == 0 {
		return nil, fmt.Errorf("dictionary: empty test vector")
	}
	if err := d.eng.BatchResponsesInto(ctx, faults, omegas, 1, &s.batch); err != nil {
		return nil, fmt.Errorf("dictionary: %w", err)
	}
	return s.finishRows(len(faults), omegas), nil
}

// finishRows turns the scratch's filled batch into signature rows
// (mag − golden), reusing the scratch's flat backing.
func (s *SignatureScratch) finishRows(n int, omegas []float64) [][]float64 {
	nw := len(omegas)
	s.flat = sliceutil.Grow(s.flat, n*nw)
	s.rows = sliceutil.Grow(s.rows, n)
	golden := s.batch.Golden
	for i := range s.rows {
		row := s.flat[i*nw : (i+1)*nw : (i+1)*nw]
		mags := s.batch.Mags[i]
		for j := range row {
			row[j] = mags[j] - golden[j]
		}
		s.rows[i] = row
	}
	return s.rows
}

// UniverseSignatures computes the signature of every fault in the
// universe at the given test frequencies, row-aligned with
// Universe().Faults() — the one-call path trajectory building rides on.
func (d *Dictionary) UniverseSignatures(ctx context.Context, omegas []float64) ([][]float64, error) {
	return d.Signatures(ctx, d.faults, omegas)
}

// UniverseSignaturesInto is UniverseSignatures writing into caller-owned
// scratch (see SignaturesInto for the aliasing and memo contract) — the
// reuse path trajectory.Builder rides on.
func (d *Dictionary) UniverseSignaturesInto(ctx context.Context, omegas []float64, s *SignatureScratch) ([][]float64, error) {
	return d.SignaturesInto(ctx, d.faults, omegas, s)
}

// SignaturesSets computes the signature points of arbitrary fault sets —
// golden, single, or multiple faults, freely mixed — in one batched
// rank-k solve. Row i is |H_sets[i](ω)| − |H_golden(ω)| over omegas.
// Like Signatures it bypasses the memo.
func (d *Dictionary) SignaturesSets(ctx context.Context, sets []fault.Set, omegas []float64) ([][]float64, error) {
	var s SignatureScratch
	rows, err := d.SignaturesSetsInto(ctx, sets, omegas, &s)
	if err != nil {
		return nil, err
	}
	return rows, nil // the scratch is fresh, so the rows are not shared
}

// SignaturesSetsInto is SignaturesSets writing into caller-owned scratch
// (see SignaturesInto for the aliasing, memo, and inline-solve
// contract).
func (d *Dictionary) SignaturesSetsInto(ctx context.Context, sets []fault.Set, omegas []float64, s *SignatureScratch) ([][]float64, error) {
	if len(omegas) == 0 {
		return nil, fmt.Errorf("dictionary: empty test vector")
	}
	if err := d.eng.BatchResponsesSetsInto(ctx, sets, omegas, 1, &s.batch); err != nil {
		return nil, fmt.Errorf("dictionary: %w", err)
	}
	return s.finishRows(len(sets), omegas), nil
}

// Entry is one exported dictionary row.
type Entry struct {
	// ID is the fault identifier ("golden" for the nominal row).
	ID string `json:"id"`
	// Mags holds |H| per grid frequency, index-aligned with the export's
	// Omegas.
	Mags []float64 `json:"mags"`
}

// Export is the JSON-serializable snapshot of a dictionary grid.
type Export struct {
	Circuit string    `json:"circuit"`
	Source  string    `json:"source"`
	Output  string    `json:"output"`
	Omegas  []float64 `json:"omegas"`
	Entries []Entry   `json:"entries"`
}

// Snapshot evaluates (memoized) the grid and returns an Export with the
// golden row first and fault rows in universe order.
func (d *Dictionary) Snapshot(omegas []float64) (*Export, error) {
	return d.SnapshotSets(omegas, nil)
}

// SnapshotSets is Snapshot with extra fault sets appended after the
// single-fault universe rows — the export path for multi-fault grids.
// Set rows are keyed by their stable IDs (e.g. "C1@-20%+R3@+30%"),
// which ParseSetID inverts, so an exported multi-fault grid round-trips
// through ParseExport and trajectory.BuildFromExport.
func (d *Dictionary) SnapshotSets(omegas []float64, sets []fault.Set) (*Export, error) {
	ex := &Export{
		Circuit: d.golden.Name(),
		Source:  d.source,
		Output:  d.output,
		Omegas:  append([]float64(nil), omegas...),
	}
	row := func(set fault.Set) (Entry, error) {
		mags := make([]float64, len(omegas))
		for i, w := range omegas {
			m, err := d.ResponseSet(set, w)
			if err != nil {
				return Entry{}, err
			}
			mags[i] = m
		}
		return Entry{ID: set.ID(), Mags: mags}, nil
	}
	g, err := row(fault.Fault{})
	if err != nil {
		return nil, err
	}
	ex.Entries = append(ex.Entries, g)
	for _, f := range d.universe.Faults() {
		e, err := row(f)
		if err != nil {
			return nil, err
		}
		ex.Entries = append(ex.Entries, e)
	}
	for _, set := range sets {
		e, err := row(set)
		if err != nil {
			return nil, err
		}
		ex.Entries = append(ex.Entries, e)
	}
	return ex, nil
}

// MarshalIndent renders the export as indented JSON.
func (e *Export) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(e, "", "  ")
}

// ParseExport loads a snapshot produced by MarshalIndent.
func ParseExport(data []byte) (*Export, error) {
	var e Export
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("dictionary: bad export: %w", err)
	}
	if len(e.Entries) == 0 {
		return nil, fmt.Errorf("dictionary: export has no entries")
	}
	for _, ent := range e.Entries {
		if len(ent.Mags) != len(e.Omegas) {
			return nil, fmt.Errorf("dictionary: entry %s has %d mags for %d omegas", ent.ID, len(ent.Mags), len(e.Omegas))
		}
	}
	return &e, nil
}

// CachedCount reports how many (fault, ω) pairs are memoized — useful in
// tests and benchmarks to verify laziness.
func (d *Dictionary) CachedCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.memoSize
}

// CachedFaultIDs lists the fault IDs with at least one memoized response,
// sorted.
func (d *Dictionary) CachedFaultIDs() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, 0, len(d.memo))
	for id := range d.memo {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}
