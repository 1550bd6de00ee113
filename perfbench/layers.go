package main

import (
	"fmt"
	"sort"
	"time"

	"repro"
	"repro/internal/diagnosis"
	"repro/internal/dictionary"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/geometry"
	"repro/internal/numeric"
	"repro/internal/probdiag"
	"repro/internal/trajectory"
)

// Stand-alone layer replays. Some layers cannot be reached separately
// inside an op (engine.New runs inside dictionary.New, the sparse
// numeric kernels inside a grid build), so they are timed here on the
// workload's reference CUT and frequencies, reported per call, and kept
// out of the residual sum.

// replayBudget bounds the repetitions of one stand-alone replay.
const replayBudget = 300 * time.Millisecond

// repeat runs fn at least 3 and at most 200 times, stopping once
// replayBudget is spent, and returns the median wall time in
// milliseconds and the median heap bytes allocated per call.
func repeat(fn func() error) (float64, float64, error) {
	var times, allocs []float64
	var spent time.Duration
	for len(times) < 3 || (spent < replayBudget && len(times) < 200) {
		d, a, err := timeOp(fn)
		if err != nil {
			return 0, 0, err
		}
		spent += d
		times = append(times, ms(d))
		allocs = append(allocs, float64(a))
	}
	return median(times), median(allocs), nil
}

// layerOpts selects the replays that apply to a workload.
type layerOpts struct {
	// probdiag builds and scores a cloud model (serving workloads).
	probdiag *probdiag.Config
}

// replayLayers times the engine, numeric, dictionary, trajectory and
// diagnosis layers one call at a time on cut at omegas.
func replayLayers(r *run, cut repro.CUT, omegas []float64, opts layerOpts) error {
	ctx := r.ctx
	c := cut.Circuit
	compileMS, _, err := repeat(func() error { _, err := engine.Compile(c); return err })
	if err != nil {
		return fmt.Errorf("engine.Compile: %w", err)
	}
	var eng *engine.Engine
	newMS, newAlloc, err := repeat(func() (err error) {
		eng, err = engine.New(c, cut.Source, cut.Output)
		return err
	})
	if err != nil {
		return fmt.Errorf("engine.New: %w", err)
	}
	r.set("engine.compile_ms", compileMS, "ms")
	r.set("engine.new_ms", newMS, "ms")
	r.set("engine.new_alloc_mb", newAlloc/(1<<20), "MB")

	u, err := fault.NewUniverse(cut.Passives, fault.PaperDeviations())
	if err != nil {
		return err
	}
	faults := u.Faults()
	k := 0
	exactMS, _, err := repeat(func() error {
		k++
		_, err := eng.ResponseSet(faults[k%len(faults)], omegas[k%len(omegas)])
		return err
	})
	if err != nil {
		return fmt.Errorf("Engine.ResponseSet: %w", err)
	}
	r.set("engine.exact_response_ms", exactMS, "ms")
	sets := make([]fault.Set, len(faults))
	for i, f := range faults {
		sets[i] = f
	}
	batchMS, _, err := repeat(func() error {
		_, err := eng.BatchResponsesSets(ctx, sets, omegas, 1)
		return err
	})
	if err != nil {
		return fmt.Errorf("Engine.BatchResponsesSets: %w", err)
	}
	r.set("engine.batch_ns_per_item", batchMS*1e6/float64(len(sets)*len(omegas)), "ns")

	if err := replayNumeric(r, eng, omegas, 1+len(u.Components)); err != nil {
		return err
	}

	dict, err := dictionary.New(c, cut.Source, cut.Output, u)
	if err != nil {
		return err
	}
	trials := diagnosis.HoldOutTrials(u, diagnosis.DefaultHoldOutDeviations())
	if len(trials) > 64 {
		trials = trials[:64]
	}
	trialSets := make([]fault.Set, len(trials))
	for i, f := range trials {
		trialSets[i] = f
	}
	sigMS, _, err := repeat(func() error {
		_, err := dict.SignaturesSets(ctx, trialSets, omegas)
		return err
	})
	if err != nil {
		return fmt.Errorf("Dictionary.SignaturesSets: %w", err)
	}
	r.set("dictionary.signatures_ms", sigMS, "ms")
	variant, err := trials[0].Apply(c)
	if err != nil {
		return err
	}
	circMS, _, err := repeat(func() error {
		_, err := dict.CircuitSignature(variant, omegas)
		return err
	})
	if err != nil {
		return fmt.Errorf("Dictionary.CircuitSignature: %w", err)
	}
	r.set("dictionary.circuit_signature_ms", circMS, "ms")

	var m *trajectory.Map
	buildMS, _, err := repeat(func() (err error) {
		m, err = trajectory.Build(ctx, dict, omegas)
		return err
	})
	if err != nil {
		return fmt.Errorf("trajectory.Build: %w", err)
	}
	r.set("trajectory.build_ms", buildMS, "ms")

	dg, err := diagnosis.New(m)
	if err != nil {
		return err
	}
	sigs, err := dict.SignaturesSets(ctx, trialSets, omegas)
	if err != nil {
		return err
	}
	k = 0
	diagMS, diagAlloc, err := repeat(func() error {
		k++
		_, err := dg.Diagnose(geometry.VecN(sigs[k%len(sigs)]))
		return err
	})
	if err != nil {
		return fmt.Errorf("Diagnoser.Diagnose: %w", err)
	}
	r.set("diagnosis.diagnose_us", diagMS*1000, "us")
	r.set("diagnosis.alloc_kb_per_diagnose", diagAlloc/1024, "KB")

	r.set("probdiag.build_ms", 0, "ms")
	r.set("probdiag.score_us", 0, "us")
	if opts.probdiag != nil {
		var cs *probdiag.CloudSet
		pbMS, _, err := repeat(func() (err error) {
			cs, err = probdiag.Build(ctx, dict, omegas, nil, *opts.probdiag)
			return err
		})
		if err != nil {
			return fmt.Errorf("probdiag.Build: %w", err)
		}
		k = 0
		scoreMS, _, err := repeat(func() error {
			k++
			_, err := cs.Score(sigs[k%len(sigs)])
			return err
		})
		if err != nil {
			return fmt.Errorf("CloudSet.Score: %w", err)
		}
		r.set("probdiag.build_ms", pbMS, "ms")
		r.set("probdiag.score_us", scoreMS*1000, "us")
	}
	r.report["reference_cut"] = c.Name()
	r.report["reference_omegas"] = omegas
	r.report["engine_path"] = eng.FactorPathName()
	return nil
}

// replayNumeric reports the sparse pattern's size and, when the engine
// solves on the sparse path, one frequency-blocked refactorization and
// one block solve at the engine's column count (1 + distinct slots).
// The dense-path figures are computed from n, not measured: 16n² bytes
// per complex matrix and about 8n³/3 real flops per LU.
func replayNumeric(r *run, eng *engine.Engine, omegas []float64, cols int) error {
	n := float64(eng.Nodes())
	r.set("numeric.dense_matrix_bytes_computed", 16*n*n, "B")
	r.set("numeric.dense_lu_flops_computed", 8*n*n*n/3, "flop")
	r.set("numeric.lu_nnz", 0, "count")
	r.set("numeric.fill_ratio", 0, "ratio")
	r.set("numeric.refactor_us_per_freq", 0, "us")
	r.set("numeric.block_solve_us_per_freq", 0, "us")
	tmpl := eng.Template()
	sym := tmpl.SparsePattern()
	if sym == nil {
		return nil
	}
	r.set("numeric.lu_nnz", float64(sym.LUNNZ()), "count")
	r.set("numeric.fill_ratio", sym.FillRatio(), "ratio")
	if eng.FactorPathName() != "sparse" {
		return nil
	}
	var ares, aims [numeric.FreqBlock][]float64
	for f := range ares {
		ares[f] = make([]float64, sym.LUNNZ())
		aims[f] = make([]float64, sym.LUNNZ())
		if err := tmpl.StampSparse(ares[f], aims[f], omegas[f%len(omegas)]); err != nil {
			return err
		}
	}
	var br numeric.BlockRefactorer
	var lus [numeric.FreqBlock]numeric.SparseLU
	refMS, _, err := repeat(func() error {
		for _, err := range br.RefactorBlock(sym, &lus, &ares, &aims) {
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("RefactorBlock: %w", err)
	}
	rhs := numeric.NewBlock(sym.N(), cols)
	for j := 0; j < cols; j++ {
		if err := rhs.SetColumn(j, tmpl.RHS()); err != nil {
			return err
		}
	}
	dst := numeric.NewBlock(sym.N(), cols)
	solveMS, _, err := repeat(func() error { return lus[0].SolveBlockInto(dst, rhs) })
	if err != nil {
		return fmt.Errorf("SolveBlock: %w", err)
	}
	r.set("numeric.refactor_us_per_freq", refMS*1000/numeric.FreqBlock, "us")
	r.set("numeric.block_solve_us_per_freq", solveMS*1000, "us")
	r.report["block_solve_columns"] = cols
	return nil
}

// work is the exact work counters of a set of dictionaries: the engine
// path counters and the response memo size. Each memo entry is one
// single-point exact solve, which Engine.Stats does not count.
type work struct {
	stats engine.PathStatsSnapshot
	memo  int
}

func workOf(dicts ...*dictionary.Dictionary) work {
	var w work
	for _, d := range dicts {
		w.stats.Add(d.Engine().Stats())
		w.memo += d.CachedCount()
	}
	return w
}

// add accumulates o into w.
func (w *work) add(o work) {
	w.stats.Add(o.stats)
	w.memo += o.memo
}

// minus returns w − b, counter by counter.
func (w work) minus(b work) work {
	neg := engine.PathStatsSnapshot{
		DenseFactors: -b.stats.DenseFactors, SparseFactors: -b.stats.SparseFactors,
		Rank1Solves: -b.stats.Rank1Solves, RankKSolves: -b.stats.RankKSolves,
		ExactFallbacks: -b.stats.ExactFallbacks, MemoHits: -b.stats.MemoHits, MemoMisses: -b.stats.MemoMisses,
		SupernodalRefactors: -b.stats.SupernodalRefactors, PartialRefactors: -b.stats.PartialRefactors,
		PartialRefactorColumns: -b.stats.PartialRefactorColumns, DenseFallbackExact: -b.stats.DenseFallbackExact,
		DenseFallbackSingular: -b.stats.DenseFallbackSingular,
	}
	w.stats.Add(neg)
	w.memo -= b.memo
	return w
}

// engineCounts reports the work counters per op: exact counts of which
// numeric path served the ops.
func engineCounts(r *run, w work, ops int) {
	d := w.stats
	per := func(v int64) float64 { return float64(v) / float64(max(ops, 1)) }
	r.set("engine.dense_factors_per_op", per(d.DenseFactors), "count")
	r.set("engine.sparse_factors_per_op", per(d.SparseFactors), "count")
	r.set("engine.rank1_solves_per_op", per(d.Rank1Solves), "count")
	r.set("engine.rankk_solves_per_op", per(d.RankKSolves), "count")
	r.set("engine.exact_fallbacks_per_op", per(d.ExactFallbacks), "count")
	r.set("engine.partial_refactors_per_op", per(d.PartialRefactors), "count")
	r.set("engine.single_point_solves_per_op", per(int64(w.memo)), "count")
	hitFrac := 0.0
	if n := d.MemoHits + d.MemoMisses; n > 0 {
		hitFrac = float64(d.MemoHits) / float64(n)
	}
	r.set("engine.memo_hit_frac", hitFrac, "frac")
	r.report["engine_stats_delta"] = d
}

// traceSummary reports the residual and the tracing overhead (traced
// vs untraced median op time over the same ops) and a per-op layer
// breakdown, and zero for the layers this workload does not reach.
func traceSummary(r *run, spans []span, untracedMS, tracedMS []float64) {
	r.set("trace.residual_frac", residualFrac(spans), "frac")
	r.set("trace.overhead_frac", median(tracedMS)/median(untracedMS)-1, "frac")
	r.set("trace.spans", float64(len(spans)), "count")
	ls := layers(spans)
	roots := rootDurationsMS(spans)
	nOps := float64(len(roots))
	// Self times of spans on parallel workers add up, so a layer's share
	// of op wall can exceed 1 where it runs on both workers at once.
	type row struct {
		Layer      string  `json:"layer"`
		Calls      float64 `json:"calls_per_op"`
		TotalMSOp  float64 `json:"total_ms_per_op"`
		SelfMSOp   float64 `json:"self_ms_per_op"`
		ShareOfOps float64 `json:"self_share_of_op_wall"`
	}
	var wall float64
	for _, d := range roots {
		wall += d
	}
	var rows []row
	for name, l := range ls {
		rows = append(rows, row{name, float64(l.Calls) / nOps, l.TotalMS / nOps, l.SelfMS / nOps, l.SelfMS / wall})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].SelfMSOp > rows[j].SelfMSOp })
	r.report["layers"] = rows
	r.report["traced_ops"] = len(tracedMS)
	r.report["untraced_p50_ms"] = median(untracedMS)
	r.report["traced_p50_ms"] = median(tracedMS)
	for _, name := range pathOnlyLayers {
		if _, ok := r.metrics[name.name]; !ok {
			r.set(name.name, 0, name.unit)
		}
	}
}

// pathOnlyLayers are the per-layer metrics measured only on the
// workloads whose ops run through that layer (the GA path, the serving
// path). Elsewhere they report 0: no time or work is spent there per op.
var pathOnlyLayers = []struct{ name, unit string }{
	{"ga.evaluations_per_op", "count"},
	{"ga.self_ms_per_op", "ms"},
	{"trajectory.builder_build_us", "us"},
	{"trajectory.intersections_us", "us"},
	{"loadgen.lag_p99_ms", "ms"},
	{"serve.queue_wait_ms_p50", "ms"},
	{"serve.batch_flush_ms_p50", "ms"},
	{"serve.engine_solve_ms_p50", "ms"},
	{"serve.request_ms_p50", "ms"},
	{"serve.http_ms_p50", "ms"},
	{"serve.coalesce_factor", "ratio"},
	{"serve.build_ms", "ms"},
	{"serve.queue_rejects", "count"},
	{"serve.errors", "count"},
}
