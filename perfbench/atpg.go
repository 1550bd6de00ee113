package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"time"

	"repro"
	"repro/internal/diagnosis"
	"repro/internal/dictionary"
	"repro/internal/ga"
	"repro/internal/geometry"
	"repro/internal/trajectory"
)

// paper-atpg: the paper's own path. An op is Session.Optimize with the
// paper's 128×15 GA for one built-in CUT and one GA seed, then the
// hold-out Session.Evaluate at the vector found. Ops cycle over the nine
// CUTs so every run holds the same mix. GA fitness (the dense batched
// engine plus trajectory intersections) is nearly all of an op; no
// sparse code and no serving run here.

// paperVector is the test vector the GA finds for nf-lowpass-7 at GA
// seed 1 with the paper's settings.
var paperVector = []float64{0.56345, 4.5524}

type atpgOp struct {
	cut  int
	seed int64
	tv   *repro.TestVector
	d    time.Duration // untraced op time
}

// atpgPlan draws op i's GA seed; the paper CUT's first op uses seed 1
// so every run checks the paper vector.
func atpgPlan(rng *rand.Rand, i, ncut int) atpgOp {
	if i == 0 {
		return atpgOp{cut: 0, seed: 1}
	}
	return atpgOp{cut: i % ncut, seed: rng.Int63n(1<<31) + 2}
}

func runPaperATPG(r *run) error {
	cuts := repro.Benchmarks()
	if cuts[0].Circuit.Name() != "nf-lowpass-7" {
		return fmt.Errorf("first built-in CUT is %s, want nf-lowpass-7", cuts[0].Circuit.Name())
	}
	var sessions []*repro.Session
	setup, err := r.setupTimes(25, func() error {
		ss := make([]*repro.Session, len(cuts))
		for i, c := range cuts {
			s, err := repro.NewSession(c, repro.WithWorkers(workers))
			if err != nil {
				return err
			}
			ss[i] = s
		}
		sessions = ss
		return nil
	})
	if err != nil {
		return err
	}
	dicts := make([]*dictionary.Dictionary, len(sessions))
	for i, s := range sessions {
		dicts[i] = s.Dictionary()
	}

	optimize := func(op *atpgOp) (*repro.Evaluation, error) {
		s := sessions[op.cut]
		cfg := repro.PaperOptimizeConfig(s.CUT().Omega0)
		cfg.Seed = op.seed
		cfg.GA.Workers = workers
		tv, err := s.Optimize(r.ctx, cfg)
		if err != nil {
			return nil, err
		}
		op.tv = tv
		return s.Evaluate(r.ctx, tv.Omegas, nil)
	}

	budget := r.phase()
	var ops []atpgOp
	// About 500 ops in a 20 s run: the tail is the median of the p90 of
	// 100-op windows (10 beyond each), so a host stall over a few windows
	// does not decide it.
	t := &tally{sloLimitMS: 250, tailPct: 90, tailWindow: 100}
	var evals int
	before := workOf(dicts...)
	for t.timed < budget {
		op := atpgPlan(r.rng, len(ops), len(cuts))
		var ev *repro.Evaluation
		d, alloc, err := timeOp(func() error {
			var err error
			ev, err = optimize(&op)
			return err
		})
		r.attempted++
		ok := err == nil && checkATPG(r, sessions[op.cut], &op)
		if err != nil {
			r.fail("op %d (%s, seed %d): %v", len(ops), cuts[op.cut].Circuit.Name(), op.seed, err)
		}
		t.add(d, alloc, ok)
		op.d = d
		if ok {
			t.top1Hit += ev.Correct
			t.top1N += ev.Total
			t.fitness = append(t.fitness, op.tv.Fitness)
			evals += op.tv.Evaluations
		}
		ops = append(ops, op)
	}
	t.peakMB = peakRSSMB()
	delta := workOf(dicts...).minus(before)
	if !r.traced {
		r.endToEnd(setup, t)
		return nil
	}

	// Traced replay of the same ops: ga.Run with a benchmark-side batch
	// fitness built from trajectory.Builder.Build + Map.Intersections,
	// then the evaluation chain, one span per call. An op records about
	// 4000 spans, so the replay stops after two rounds of the CUTs.
	rec := newRecorder()
	var untracedMS, tracedMS []float64
	var spent time.Duration
	for i := 0; i < len(ops) && i < 2*len(cuts) && spent < budget; i++ {
		op := ops[i]
		if op.tv == nil {
			continue
		}
		t0 := time.Now()
		omegas, fit, err := tracedATPG(r.ctx, rec, i+1, sessions[op.cut], op.seed)
		d := time.Since(t0)
		spent += d
		if err != nil {
			return fmt.Errorf("traced op %d: %w", i, err)
		}
		tracedMS = append(tracedMS, ms(d))
		untracedMS = append(untracedMS, ms(op.d))
		if fit != op.tv.Fitness || !slices.Equal(omegas, op.tv.Omegas) {
			r.fail("traced op %d: replay found %v (fitness %v), Session.Optimize %v (fitness %v)", i, omegas, fit, op.tv.Omegas, op.tv.Fitness)
		}
	}
	spans, err := finish(rec.spans)
	if err != nil {
		return err
	}
	r.spans = spans
	ls := layers(spans)
	nTraced := float64(len(tracedMS))
	r.set("ga.evaluations_per_op", float64(evals)/float64(max(len(t.fitness), 1)), "count")
	r.set("ga.self_ms_per_op", ls["ga.Run"].SelfMS/nTraced, "ms")
	r.set("trajectory.builder_build_us", ls["trajectory.Builder.Build"].meanUS(), "us")
	r.set("trajectory.intersections_us", ls["trajectory.Map.Intersections"].meanUS(), "us")
	traceSummary(r, spans, untracedMS, tracedMS)
	engineCounts(r, delta, t.ops)
	return replayLayers(r, cuts[0], paperVector, layerOpts{})
}

// checkATPG is the per-op correctness check, outside the timed region:
// the vector's fitness recomputed through Session.Fitness must equal
// the GA's, and the paper CUT at seed 1 must give the paper vector.
func checkATPG(r *run, s *repro.Session, op *atpgOp) bool {
	if op.tv == nil {
		return false
	}
	fit, err := s.Fitness(r.ctx, op.tv.Omegas)
	if err != nil || fit != op.tv.Fitness {
		r.fail("%s seed %d: Session.Fitness %v (err %v) != GA fitness %v", s.CUT().Circuit.Name(), op.seed, fit, err, op.tv.Fitness)
		return false
	}
	if op.cut == 0 && op.seed == 1 {
		w := op.tv.Omegas
		if len(w) != 2 || op.tv.Fitness != 1 || !closeRel(w[0], paperVector[0], 1e-4) || !closeRel(w[1], paperVector[1], 1e-4) {
			r.fail("paper CUT at seed 1 gave %v (fitness %v), want ≈ %v with fitness 1", w, op.tv.Fitness, paperVector)
			return false
		}
	}
	return true
}

// tracedATPG replays Session.Optimize + Session.Evaluate for one CUT and
// GA seed as the chain of layer calls the façade makes, one span per
// call. It returns the vector and fitness found, which must match the
// façade's bit for bit.
func tracedATPG(ctx context.Context, rec *recorder, opID int, s *repro.Session, seed int64) ([]float64, float64, error) {
	root := rec.start("op", opID, 0)
	defer rec.end(root)
	dict := s.Dictionary()
	cfg := repro.PaperOptimizeConfig(s.CUT().Omega0)
	cfg.Seed = seed
	cfg.GA.Workers = workers
	lo, hi := math.Log10(cfg.BandLo), math.Log10(cfg.BandHi)
	bounds := make([]ga.Interval, cfg.NumFrequencies)
	for i := range bounds {
		bounds[i] = ga.Interval{Lo: lo, Hi: hi}
	}
	builders := make([]*trajectory.Builder, workers)
	for i := range builders {
		builders[i] = trajectory.NewBuilder(dict)
	}
	gaSpan := rec.start("ga.Run", opID, root)
	eval := func(b *trajectory.Builder, parent int, genes []float64) float64 {
		omegas := make([]float64, len(genes))
		for i, g := range genes {
			omegas[i] = math.Pow(10, g)
		}
		id := rec.start("trajectory.Builder.Build", opID, parent)
		m, err := b.Build(ctx, omegas)
		rec.end(id)
		if err != nil {
			return 0
		}
		id = rec.start("trajectory.Map.Intersections", opID, parent)
		n := m.Intersections()
		rec.end(id)
		return 1 / (1 + float64(n))
	}
	problem := ga.Problem{
		Bounds: bounds,
		BatchFitness: func(genomes [][]float64, out []float64) {
			batch := rec.start("ga.BatchFitness", opID, gaSpan)
			defer rec.end(batch)
			per := (len(genomes) + workers - 1) / workers
			var wg sync.WaitGroup
			for k := 0; k < workers; k++ {
				lo, hi := k*per, min((k+1)*per, len(genomes))
				if lo >= hi {
					break
				}
				wg.Add(1)
				go func(b *trajectory.Builder, lo, hi int) {
					defer wg.Done()
					for i := lo; i < hi; i++ {
						out[i] = eval(b, batch, genomes[i])
					}
				}(builders[k], lo, hi)
			}
			wg.Wait()
		},
	}
	res, err := ga.Run(ctx, problem, cfg.GA, rand.New(rand.NewSource(cfg.Seed)))
	rec.end(gaSpan)
	if err != nil {
		return nil, 0, err
	}
	omegas := make([]float64, len(res.Best))
	for i, g := range res.Best {
		omegas[i] = math.Pow(10, g)
	}
	sort.Float64s(omegas)
	var m *trajectory.Map
	if err := rec.timed("trajectory.Build", opID, root, func() (err error) {
		m, err = trajectory.Build(ctx, dict, omegas)
		return err
	}); err != nil {
		return nil, 0, err
	}
	rec.timed("trajectory.Map.Intersections", opID, root, func() error { m.Intersections(); return nil })

	// Session.Evaluate: trajectory.Build → diagnosis.New → one batched
	// Dictionary.Signatures → Diagnoser.Diagnose per hold-out trial.
	if err := rec.timed("trajectory.Build", opID, root, func() (err error) {
		m, err = trajectory.Build(ctx, dict, omegas)
		return err
	}); err != nil {
		return nil, 0, err
	}
	var dg *diagnosis.Diagnoser
	if err := rec.timed("diagnosis.New", opID, root, func() (err error) {
		dg, err = diagnosis.New(m)
		return err
	}); err != nil {
		return nil, 0, err
	}
	trials := diagnosis.HoldOutTrials(dict.Universe(), diagnosis.DefaultHoldOutDeviations())
	var sigs [][]float64
	if err := rec.timed("dictionary.Signatures", opID, root, func() (err error) {
		sigs, err = dict.Signatures(ctx, trials, omegas)
		return err
	}); err != nil {
		return nil, 0, err
	}
	for _, sig := range sigs {
		if err := rec.timed("diagnosis.Diagnose", opID, root, func() error {
			_, err := dg.Diagnose(geometry.VecN(sig))
			return err
		}); err != nil {
			return nil, 0, err
		}
	}
	return omegas, res.BestFitness, nil
}

func closeRel(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}
