package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro"
	"repro/internal/diagnosis"
	"repro/internal/dictionary"
	"repro/internal/geometry"
)

// ladder-holdout: warm bulk diagnosis over a wide fault universe.
// rc-ladder-256 has 258 unknowns and 512 fault targets; set-up builds
// the Session and its Diagnoser at a fixed 2-frequency vector, and an op
// diagnoses one serving-sized batch (64) of the 3072 hold-out faults
// with Session.DiagnoseFaults. Nearest-trajectory projection over 512
// trajectories and the block solve over 512 slots dominate; the sparse
// refactor is trivial and no single-point exact solve runs.

const (
	ladderCUT   = "rc-ladder-256"
	ladderBatch = 64
)

var ladderOmegas = []float64{0.002, 0.008}

func runLadderHoldout(r *run) error {
	cut, err := repro.BenchmarkByName(ladderCUT)
	if err != nil {
		return err
	}
	var s *repro.Session
	var dg *repro.Diagnoser
	setup, err := r.setupTimes(11, func() (err error) {
		if s, err = repro.NewSession(cut, repro.WithWorkers(workers)); err != nil {
			return err
		}
		dg, err = s.Diagnoser(r.ctx, ladderOmegas)
		return err
	})
	if err != nil {
		return err
	}
	trials := diagnosis.HoldOutTrials(s.Universe(), diagnosis.DefaultHoldOutDeviations())
	r.rng.Shuffle(len(trials), func(i, j int) { trials[i], trials[j] = trials[j], trials[i] })
	batch := func(i int) []repro.Fault {
		lo := (i * ladderBatch) % len(trials)
		return trials[lo : lo+ladderBatch]
	}
	if len(trials)%ladderBatch != 0 {
		return fmt.Errorf("%d hold-out trials do not split into batches of %d", len(trials), ladderBatch)
	}
	sweep := len(trials) / ladderBatch

	budget := r.phase()
	before := workOf(s.Dictionary())
	// About 150 ops in a 20 s run: p90 leaves ~15 beyond.
	t := &tally{sloLimitMS: 500, tailPct: 90}
	var opMS []float64
	// sweepHit counts correct diagnoses over the first full sweep of the
	// trials, which must equal Session.Evaluate's count.
	sweepHit := 0
	var after work
	ended := false
	i := 0
	for ; t.timed < budget || i < sweep; i++ {
		faults := batch(i)
		// Each batch starts from a collected heap, outside the timed
		// region, so an op pays for collecting its own garbage rather
		// than a varying share of its predecessors'.
		runtime.GC()
		var res []*repro.DiagnosisResult
		d, alloc, err := timeOp(func() (err error) {
			res, err = s.DiagnoseFaults(r.ctx, dg, faults)
			return err
		})
		hit := 0
		if err == nil {
			for k, f := range faults {
				if res[k].Best().Component == f.Component {
					hit++
				}
			}
		}
		if i < sweep {
			sweepHit += hit
		}
		if t.timed >= budget {
			if !ended {
				after, ended = workOf(s.Dictionary()), true
				t.peakMB = peakRSSMB()
			}
			continue // completing the first sweep for the check, untimed
		}
		r.attempted++
		if err != nil {
			r.fail("op %d: %v", i, err)
		}
		t.add(d, alloc, err == nil)
		opMS = append(opMS, ms(d))
		t.top1Hit += hit
		t.top1N += len(faults)
	}
	if !ended {
		after = workOf(s.Dictionary())
		t.peakMB = peakRSSMB()
	}
	delta := after.minus(before)
	ev, err := s.Evaluate(r.ctx, ladderOmegas, nil)
	if err != nil {
		return err
	}
	if ev.Correct != sweepHit || ev.Total != len(trials) {
		r.fail("a full sweep of batched diagnoses named %d/%d, Session.Evaluate %d/%d", sweepHit, len(trials), ev.Correct, ev.Total)
	}
	r.report["evaluate_accuracy"] = ev.Accuracy()
	if !r.traced {
		fit, err := s.Fitness(r.ctx, ladderOmegas)
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
	for ; n < len(opMS) && spent < budget; n++ {
		runtime.GC()
		t0 := time.Now()
		if err := tracedLadder(r.ctx, rec, n+1, s.Dictionary(), dg, batch(n)); err != nil {
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
	engineCounts(r, delta, len(opMS))
	return replayLayers(r, cut, ladderOmegas, layerOpts{})
}

// tracedLadder replays Session.DiagnoseFaults as the layer calls the
// façade makes: one batched Dictionary.Signatures, then one
// Diagnoser.Diagnose per fault.
func tracedLadder(ctx context.Context, rec *recorder, opID int, dict *dictionary.Dictionary, dg *repro.Diagnoser, faults []repro.Fault) error {
	root := rec.start("op", opID, 0)
	defer rec.end(root)
	var sigs [][]float64
	if err := rec.timed("dictionary.Signatures", opID, root, func() (err error) {
		sigs, err = dict.Signatures(ctx, faults, ladderOmegas)
		return err
	}); err != nil {
		return err
	}
	for _, sig := range sigs {
		if err := rec.timed("diagnosis.Diagnose", opID, root, func() error {
			_, err := dg.Diagnose(geometry.VecN(sig))
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}
