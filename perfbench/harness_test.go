package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	cases := []struct {
		n       int
		want    float64
		pct     float64
		beyond  int
		fellOff bool
	}{
		{n: 1000, want: 99, pct: 99, beyond: 10},
		{n: 100, want: 95, pct: 90, beyond: 10}, // p95 has only 5 beyond
		{n: 44, want: 70, pct: 70, beyond: 13},
		{n: 30, want: 70, pct: 66, beyond: 10},
		{n: 20, want: 95, pct: 50, beyond: 10},
		{n: 19, want: 95, pct: 100, fellOff: true},
	}
	for _, c := range cases {
		s := summarize(seq(c.n), c.want)
		if s.TailPct != c.pct {
			t.Errorf("n=%d want p%g: reported p%g, expected p%g", c.n, c.want, s.TailPct, c.pct)
		}
		if c.fellOff {
			if s.Tail != float64(c.n) || s.TailNote == "" {
				t.Errorf("n=%d: tail %v (%q), want the maximum with a note", c.n, s.Tail, s.TailNote)
			}
			continue
		}
		if s.Beyond < minBeyond || s.Beyond != c.beyond {
			t.Errorf("n=%d p%g: %d samples beyond, want %d", c.n, s.TailPct, s.Beyond, c.beyond)
		}
	}
}

func TestWindowedTailIgnoresAFewStalledWindows(t *testing.T) {
	lat := make([]float64, 1000)
	for i := range lat {
		lat[i] = 5
		if i%10 == 0 {
			lat[i] = 8 // the ordinary tail: 10% of every window
		}
		if i >= 400 && i < 550 {
			lat[i] = 50 // a host stall over 15% of the run
		}
	}
	if got := quantileOf(lat, 0.95); got != 50 {
		t.Fatalf("run-wide p95 %v, want the stall's 50", got)
	}
	if got := windowedTail(lat, 95, 200); got != 8 {
		t.Errorf("windowed p95 %v, want the ordinary tail 8", got)
	}
	if got := windowedTail(lat[:100], 95, 200); got != quantileOf(lat[:100], 0.95) {
		t.Errorf("short run: windowed %v, want the run-wide percentile", got)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Parent: 0, Start: 0, End: 100},
		{ID: 2, Name: "a", Parent: 1, Start: 10, End: 30},
		{ID: 3, Name: "b", Parent: 1, Start: 20, End: 50},  // overlaps a: parallel worker
		{ID: 4, Name: "c", Parent: 1, Start: 90, End: 120}, // runs past the parent
		{ID: 5, Name: "d", Parent: 3, Start: 25, End: 35},
	}
	got, err := finish(spans)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]int64{1: 100 - 40 - 10, 2: 20, 3: 30 - 10, 4: 30, 5: 10}
	for _, s := range got {
		if s.Self != want[s.ID] {
			t.Errorf("span %d (%s): self %d, want %d", s.ID, s.Name, s.Self, want[s.ID])
		}
	}
	if _, err := finish([]span{{ID: 1, Start: 5, End: -1}}); err == nil {
		t.Error("an unclosed span was accepted")
	}
}

func TestResidualIsUncoveredShareOfOpWall(t *testing.T) {
	spans, err := finish([]span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Name: "x", Parent: 1, Start: 0, End: 80},
		{ID: 3, Name: "op", Start: 200, End: 300},
		{ID: 4, Name: "y", Parent: 3, Start: 200, End: 260},
		{ID: 5, Name: "z", Parent: 3, Start: 250, End: 300},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Op 1 leaves 20 uncovered, op 2 none: 20 of 200.
	if got := residualFrac(spans); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("residual %v, want 0.1", got)
	}
	l := layers(spans)
	if l["op"].Calls != 2 || math.Abs(l["op"].SelfMS-20e-6) > 1e-15 {
		t.Errorf("op layer %+v, want 2 calls and 20 ns self", l["op"])
	}
}

func TestOpenLoopTimesFromDueSoStallsShowLater(t *testing.T) {
	const n = 20
	step := 2 * time.Millisecond
	stall := 40 * time.Millisecond
	offsets := make([]time.Duration, n)
	for i := range offsets {
		offsets[i] = time.Duration(i) * step
	}
	res := openLoop(time.Now(), offsets, 1, func(conn, i int, due time.Time) error {
		if i == 3 {
			time.Sleep(stall)
		}
		return nil
	})
	// Request 4 was due 2 ms after the stalled one started; its own
	// service is instant, but it waited behind the stall.
	r := res[4]
	if service := r.Done.Sub(r.Sent); service > 5*time.Millisecond {
		t.Fatalf("request 4 service %v; the host is too loaded for this test", service)
	}
	if r.Latency() < stall-step-5*time.Millisecond {
		t.Errorf("request 4 latency %v from due, want about %v", r.Latency(), stall-step)
	}
	for i, r := range res {
		if r.Due.IsZero() || r.Released.Before(r.Due) || r.Sent.Before(r.Released) || r.Done.Before(r.Sent) {
			t.Errorf("request %d: times out of order: %+v", i, r)
		}
		if r.Latency() < r.Done.Sub(r.Sent) {
			t.Errorf("request %d: latency %v shorter than its service", i, r.Latency())
		}
	}
	if got := res[0].Latency(); got > 10*time.Millisecond {
		t.Errorf("request 0 latency %v before any stall", got)
	}
}
