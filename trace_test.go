package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
)

// TestSessionTracerSpans verifies WithTracer records one span per stage
// call plus the engine's per-column spans on the fault-set diagnosis
// path, and that the trace dumps as parseable JSON.
func TestSessionTracerSpans(t *testing.T) {
	ctx := context.Background()
	tr := NewTracer()
	s, err := NewSession(PaperCUT(), WithTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	tv, err := s.Optimize(ctx, smallCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Trajectories(ctx, tv.Omegas); err != nil {
		t.Fatal(err)
	}
	dg, err := s.Diagnoser(ctx, tv.Omegas)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.DiagnoseFaultSets(ctx, dg, []FaultSet{Fault{Component: "R3", Deviation: 0.25}}); err != nil {
		t.Fatal(err)
	}

	byName := map[string]int{}
	for _, sp := range tr.Spans() {
		byName[sp.Name]++
		if sp.DurMS < 0 || sp.StartMS < 0 {
			t.Errorf("span %s has negative timing: start %g dur %g", sp.Name, sp.StartMS, sp.DurMS)
		}
	}
	for _, want := range []string{"session.dictionary", "session.optimize", "session.trajectories"} {
		if byName[want] != 1 {
			t.Errorf("span %q recorded %d times, want 1 (spans: %v)", want, byName[want], byName)
		}
	}
	// DiagnoseFaultSets batches through the engine's fault-set path: one
	// engine.column span per test-vector frequency.
	if byName["engine.column"] < len(tv.Omegas) {
		t.Errorf("engine.column spans = %d, want >= %d", byName["engine.column"], len(tv.Omegas))
	}

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Spans []TraceSpan `json:"spans"`
	}
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	if len(dump.Spans) != len(tr.Spans()) {
		t.Fatalf("JSON spans = %d, want %d", len(dump.Spans), len(tr.Spans()))
	}
}

// TestTracerDoesNotChangeResults pins the acceptance criterion: a traced
// session computes bit-identical GA results to an untraced one at the
// same seed.
func TestTracerDoesNotChangeResults(t *testing.T) {
	ctx := context.Background()
	plain := testSession(t)
	traced, err := NewSession(PaperCUT(), WithTracer(NewTracer()))
	if err != nil {
		t.Fatal(err)
	}
	tvP, err := plain.Optimize(ctx, smallCfg(7))
	if err != nil {
		t.Fatal(err)
	}
	tvT, err := traced.Optimize(ctx, smallCfg(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(tvP.Omegas) != len(tvT.Omegas) || tvP.Fitness != tvT.Fitness {
		t.Fatalf("traced run diverged: %+v vs %+v", tvP, tvT)
	}
	for i := range tvP.Omegas {
		if tvP.Omegas[i] != tvT.Omegas[i] {
			t.Fatalf("omega[%d]: %v vs %v", i, tvP.Omegas[i], tvT.Omegas[i])
		}
	}
}

// TestProgressElapsedMS verifies the timing field on the progress
// stream: stage-final events carry a non-negative elapsed time, and GA
// generation events carry non-decreasing elapsed times.
func TestProgressElapsedMS(t *testing.T) {
	var events []Progress
	s, err := NewSession(PaperCUT(), WithProgress(func(p Progress) { events = append(events, p) }))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) < 2 {
		t.Fatalf("dictionary stage emitted %d events, want >= 2", len(events))
	}
	final := events[len(events)-1]
	if final.Completed != final.Total {
		t.Fatalf("last dictionary event %d/%d, want final", final.Completed, final.Total)
	}
	if final.ElapsedMS < 0 {
		t.Fatalf("final ElapsedMS = %g, want >= 0", final.ElapsedMS)
	}

	events = events[:0]
	if _, err := s.Optimize(context.Background(), smallCfg(2)); err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for _, ev := range events {
		if ev.Stage != StageOptimize {
			continue
		}
		if ev.ElapsedMS < prev {
			t.Fatalf("generation %d ElapsedMS %g < previous %g", ev.Generation, ev.ElapsedMS, prev)
		}
		prev = ev.ElapsedMS
	}
	if prev < 0 {
		t.Fatal("no optimize events seen")
	}
}

// TestSessionCompileSpans pins the cold-session trace: with WithTracer,
// NewSession records one session.compile span (the engine and
// dictionary build) and one session.fingerprint span (netlist serialize
// and checksum), both inside the session.dictionary window that now
// also covers validation.
func TestSessionCompileSpans(t *testing.T) {
	for _, name := range []string{"nf-lowpass-7", "rc-grid-8"} {
		cut, err := BenchmarkByName(name)
		if err != nil {
			t.Fatal(err)
		}
		tr := NewTracer()
		if _, err := NewSession(cut, WithTracer(tr)); err != nil {
			t.Fatal(err)
		}
		spans := map[string][]TraceSpan{}
		for _, sp := range tr.Spans() {
			spans[sp.Name] = append(spans[sp.Name], sp)
		}
		for _, want := range []string{"session.dictionary", "session.compile", "session.fingerprint"} {
			if len(spans[want]) != 1 {
				t.Fatalf("%s: span %q recorded %d times, want 1", name, want, len(spans[want]))
			}
		}
		dict := spans["session.dictionary"][0]
		const eps = 1e-6 // ms; span offsets are float64 milliseconds
		for _, inner := range []string{"session.compile", "session.fingerprint"} {
			sp := spans[inner][0]
			if sp.StartMS < dict.StartMS-eps || sp.StartMS+sp.DurMS > dict.StartMS+dict.DurMS+eps {
				t.Fatalf("%s: %s [%g, %g] ms outside session.dictionary [%g, %g] ms", name, inner,
					sp.StartMS, sp.StartMS+sp.DurMS, dict.StartMS, dict.StartMS+dict.DurMS)
			}
		}
		if c, f := spans["session.compile"][0], spans["session.fingerprint"][0]; c.StartMS+c.DurMS > f.StartMS+eps {
			t.Fatalf("%s: compile [%g +%g] overlaps fingerprint start %g", name, c.StartMS, c.DurMS, f.StartMS)
		}
	}
}
