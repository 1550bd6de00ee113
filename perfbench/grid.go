package main

import (
	"context"
	"fmt"
	"math/cmplx"
	"math/rand"
	"runtime/debug"
	"time"

	"repro"
	"repro/internal/analysis"
	"repro/internal/artifact"
	"repro/internal/circuit"
	"repro/internal/diagnosis"
	"repro/internal/dictionary"
	"repro/internal/fault"
	"repro/internal/geometry"
	"repro/internal/trajectory"
)

// grid-oneshot: what `ftdiag -cut rc-grid-32 -freqs 0.02,0.05 -inject …`
// does, paid cold on every op as CLI users pay it: NewSession +
// Diagnoser + one DiagnoseSet, or NewSession + DiagnoseCircuit on a
// tolerance-perturbed board for one op in four. rc-grid-32 has 1025
// unknowns and 24 fault targets, so the engine runs the sparse path
// while the single-point exact solves and engine.New's verification are
// dense: this is where those costs show, and where GA and scoring cost
// nothing. (rc-grid-45, the size the ROADMAP quotes, takes ~2.7 s per op
// and leaves too few ops per run for a tail percentile.)

const (
	gridCUT = "rc-grid-32"
	// gridBoardSigma is the tolerance spread of perturbed boards: every
	// one of the grid's ~3000 components is perturbed, so even 0.2%
	// buries a 25% fault on one of them.
	gridBoardSigma = 0.0005
)

var gridOmegas = []float64{0.02, 0.05}

type gridKind int

const (
	gridSingle gridKind = iota
	gridDouble
	gridBoard
)

type gridOp struct {
	kind  gridKind
	set   fault.Set
	board int64 // perturbation seed of a gridBoard op
}

// offGridDeviation draws a whole-percent deviation in ±[12%, 38%] that
// is not on the paper's 10% grid. Whole percents keep fault IDs exact.
func offGridDeviation(rng *rand.Rand) float64 {
	for {
		k := 12 + rng.Intn(27)
		if k%10 == 0 {
			continue
		}
		if rng.Intn(2) == 0 {
			k = -k
		}
		return float64(k) / 100
	}
}

// randomSet draws a single fault, or a double fault on two distinct
// components, from comps.
func randomSet(rng *rand.Rand, comps []string, double bool) (fault.Set, error) {
	a := rng.Intn(len(comps))
	fa := fault.Fault{Component: comps[a], Deviation: offGridDeviation(rng)}
	if !double {
		return fa, nil
	}
	b := rng.Intn(len(comps) - 1)
	if b >= a {
		b++
	}
	return fault.NewMulti(fa, fault.Fault{Component: comps[b], Deviation: offGridDeviation(rng)})
}

// gridPlan draws ops in blocks of four: two single faults, one double
// fault and one perturbed board, shuffled within the block, so every
// run holds the same mix.
func gridPlan(rng *rand.Rand, comps []string, n int) ([]gridOp, error) {
	var ops []gridOp
	for len(ops) < n {
		kinds := []gridKind{gridSingle, gridSingle, gridDouble, gridBoard}
		rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		for _, k := range kinds {
			set, err := randomSet(rng, comps, k == gridDouble)
			if err != nil {
				return nil, err
			}
			ops = append(ops, gridOp{kind: k, set: set, board: rng.Int63()})
		}
	}
	return ops, nil
}

// board builds the perturbed faulty board of a gridBoard op: every
// component but the faulted one spread by gridBoardSigma, then the
// fault injected.
func (op gridOp) boardCircuit(golden *circuit.Circuit) (*circuit.Circuit, error) {
	f := op.set.Parts()[0]
	c, err := fault.Tolerance{Sigma: gridBoardSigma}.Perturb(golden, rand.New(rand.NewSource(op.board)), f.Component)
	if err != nil {
		return nil, err
	}
	if err := c.ScaleValue(f.Component, f.Scale()); err != nil {
		return nil, err
	}
	return c, nil
}

func runGridOneshot(r *run) error {
	var cut repro.CUT
	var ops []gridOp
	// Every op is cold, so set-up is only resolving the CUT and drawing
	// the op plan.
	setup, err := r.setupTimes(25, func() error {
		var err error
		cut, err = repro.BenchmarkByName(gridCUT)
		if err != nil {
			return err
		}
		ops, err = gridPlan(rand.New(rand.NewSource(r.seed)), cut.Passives, 400)
		return err
	})
	if err != nil {
		return err
	}

	budget := r.phase()
	// About 28 ops in a 20 s run: p60 leaves ~11 beyond.
	t := &tally{sloLimitMS: 2000, tailPct: 60}
	var done work
	var opMS []float64
	i := 0
	for ; t.timed < budget && i < len(ops); i++ {
		op := ops[i]
		var board *circuit.Circuit
		if op.kind == gridBoard {
			if board, err = op.boardCircuit(cut.Circuit); err != nil {
				return err
			}
		}
		// Each op starts like a fresh ftdiag process: an empty heap whose
		// memory is back with the OS, prepared outside the timed region.
		// The heap memory still resident when the op ends is then the
		// op's own footprint.
		debug.FreeOSMemory()
		var s *repro.Session
		var res *repro.DiagnosisResult
		d, alloc, err := timeOp(func() error {
			var err error
			s, err = repro.NewSession(cut, repro.WithWorkers(workers))
			if err != nil {
				return err
			}
			if board != nil {
				res, _, err = s.DiagnoseCircuit(r.ctx, board, gridOmegas, 0)
				return err
			}
			dg, err := s.Diagnoser(r.ctx, gridOmegas)
			if err != nil {
				return err
			}
			res, err = dg.DiagnoseSet(s.Dictionary(), op.set)
			return err
		})
		t.opPeakMB = append(t.opPeakMB, residentHeapMB())
		r.attempted++
		ok := err == nil
		if err != nil {
			r.fail("op %d (%s): %v", i, op.set.ID(), err)
		} else {
			done.add(workOf(s.Dictionary()))
			if board == nil {
				ok = checkGridResponse(r, s.Dictionary(), op.set, gridOmegas[i%len(gridOmegas)])
			}
		}
		t.add(d, alloc, ok)
		opMS = append(opMS, ms(d))
		// The session models single faults only, so top-1 is scored on
		// the single-fault injections; double faults and perturbed boards
		// are out of model and count for cost alone.
		if ok && op.kind == gridSingle {
			t.top1N++
			if namesInjected(res.Best(), op.set) {
				t.top1Hit++
			}
		}
	}
	if !r.traced {
		// The fitness of the fixed vector, computed once outside the
		// timed ops.
		s, err := repro.NewSession(cut, repro.WithWorkers(workers))
		if err != nil {
			return err
		}
		fit, err := s.Fitness(r.ctx, gridOmegas)
		if err != nil {
			return err
		}
		t.fitness = []float64{fit}
		r.endToEnd(setup, t)
		return nil
	}

	rec := newRecorder()
	var tracedMS []float64
	var spent time.Duration
	n := 0
	for ; n < i && spent < budget; n++ {
		op := ops[n]
		var board *circuit.Circuit
		if op.kind == gridBoard {
			if board, err = op.boardCircuit(cut.Circuit); err != nil {
				return err
			}
		}
		debug.FreeOSMemory()
		t0 := time.Now()
		if err := tracedGrid(r.ctx, rec, n+1, cut, op.set, board); err != nil {
			return fmt.Errorf("traced op %d: %w", n, err)
		}
		d := time.Since(t0)
		spent += d
		tracedMS = append(tracedMS, ms(d))
	}
	spans, err := finish(rec.spans)
	if err != nil {
		return err
	}
	r.spans = spans
	traceSummary(r, spans, opMS[:n], tracedMS)
	engineCounts(r, done, i)
	return replayLayers(r, cut, gridOmegas, layerOpts{})
}

// checkGridResponse compares the single-point exact response the op
// computed (now in the dictionary memo) with the analysis reference, to
// 1e-9 relative. It runs outside the timed region.
func checkGridResponse(r *run, d *dictionary.Dictionary, set fault.Set, omega float64) bool {
	got, err := d.ResponseSet(set, omega)
	if err != nil {
		r.fail("%s: memo response: %v", set.ID(), err)
		return false
	}
	var want float64
	if f, ok := set.(fault.Fault); ok {
		want, err = d.ScalarResponse(f, omega)
	} else {
		want, err = analysisResponse(d, set, omega)
	}
	if err != nil {
		r.fail("%s: reference response: %v", set.ID(), err)
		return false
	}
	if !closeRel(got, want, 1e-9) {
		r.fail("%s at ω=%g: engine %v, analysis %v", set.ID(), omega, got, want)
		return false
	}
	return true
}

// analysisResponse is |H(jω)| of a multiple fault by the analysis
// clone-and-solve path, the reference Dictionary.ScalarResponse uses
// for single faults.
func analysisResponse(d *dictionary.Dictionary, set fault.Set, omega float64) (float64, error) {
	m, ok := set.(fault.Multi)
	if !ok {
		return 0, fmt.Errorf("unexpected fault set %T", set)
	}
	c, err := m.Apply(d.Golden())
	if err != nil {
		return 0, err
	}
	ac, err := analysis.NewAC(c)
	if err != nil {
		return 0, err
	}
	h, err := ac.Transfer(d.Source(), d.Output(), omega)
	if err != nil {
		return 0, err
	}
	return cmplx.Abs(h), nil
}

// namesInjected reports whether the candidate names only components the
// injected set faulted: a single-fault model can name one part of a
// double fault, a double-fault model must name the pair.
func namesInjected(c diagnosis.Candidate, set fault.Set) bool {
	injected := map[string]bool{}
	for _, p := range set.Parts() {
		injected[p.Component] = true
	}
	named := c.Components
	if !c.IsMulti() {
		named = []string{c.Component}
	}
	for _, n := range named {
		if !injected[n] {
			return false
		}
	}
	return len(named) > 0
}

// tracedGrid replays NewSession + Diagnoser + DiagnoseSet (or
// NewSession + DiagnoseCircuit when board is set) as the chain of layer
// calls the façade makes, one span per call.
func tracedGrid(ctx context.Context, rec *recorder, opID int, cut repro.CUT, set fault.Set, board *circuit.Circuit) error {
	root := rec.start("op", opID, 0)
	defer rec.end(root)
	step := func(name string, fn func() error) error { return rec.timed(name, opID, root, fn) }
	if err := step("circuits.CUT.Validate", cut.Validate); err != nil {
		return err
	}
	var u *fault.Universe
	if err := step("fault.NewUniverse", func() (err error) {
		u, err = fault.NewUniverse(cut.Passives, fault.PaperDeviations())
		return err
	}); err != nil {
		return err
	}
	var dict *dictionary.Dictionary
	if err := step("dictionary.New", func() (err error) {
		dict, err = dictionary.New(cut.Circuit, cut.Source, cut.Output, u)
		return err
	}); err != nil {
		return err
	}
	if err := step("netlist.Serialize+checksum", func() error {
		text, err := repro.SerializeNetlist(cut.Circuit)
		artifact.Checksum(text)
		return err
	}); err != nil {
		return err
	}
	var m *trajectory.Map
	if err := step("trajectory.Build", func() (err error) {
		m, err = trajectory.Build(ctx, dict, gridOmegas)
		return err
	}); err != nil {
		return err
	}
	var dg *diagnosis.Diagnoser
	if err := step("diagnosis.New", func() (err error) {
		dg, err = diagnosis.New(m)
		return err
	}); err != nil {
		return err
	}
	var sig []float64
	var err error
	if board != nil {
		err = step("dictionary.CircuitSignature", func() (err error) {
			sig, err = dict.CircuitSignature(board, gridOmegas)
			return err
		})
	} else {
		err = step("dictionary.SignatureSet", func() (err error) {
			sig, err = dict.SignatureSet(set, gridOmegas)
			return err
		})
	}
	if err != nil {
		return err
	}
	return step("diagnosis.Diagnose", func() error {
		_, err := dg.Diagnose(geometry.VecN(sig))
		return err
	})
}
