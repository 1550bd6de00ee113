package geometry

import (
	"math"
	"testing"
)

func TestPolylineSegmentsLength(t *testing.T) {
	pl := Polyline{{0, 0}, {3, 0}, {3, 4}}
	segs := pl.Segments()
	if len(segs) != 2 {
		t.Fatalf("segments = %d, want 2", len(segs))
	}
	if pl.Length() != 7 {
		t.Fatalf("length = %v, want 7", pl.Length())
	}
	if (Polyline{{1, 1}}).Segments() != nil {
		t.Fatal("single-point polyline should have no segments")
	}
}

func TestPolylineBox(t *testing.T) {
	pl := Polyline{{1, 2}, {-1, 5}, {0, 0}}
	b := pl.Box()
	if b.Min != (Point{-1, 0}) || b.Max != (Point{1, 5}) {
		t.Fatalf("box = %+v", b)
	}
}

func TestNearestSegment(t *testing.T) {
	pl := Polyline{{0, 0}, {10, 0}, {10, 10}}
	i, pr, ok := pl.NearestSegment(Point{5, 1})
	if !ok || i != 0 {
		t.Fatalf("nearest = %d ok=%v, want 0", i, ok)
	}
	if pr.Dist != 1 {
		t.Fatalf("dist = %v, want 1", pr.Dist)
	}
	i, pr, ok = pl.NearestSegment(Point{12, 5})
	if !ok || i != 1 || pr.Dist != 2 {
		t.Fatalf("nearest = %d dist=%v, want 1, 2", i, pr.Dist)
	}
	if _, _, ok := (Polyline{{0, 0}}).NearestSegment(Point{1, 1}); ok {
		t.Fatal("degenerate polyline should report not-ok")
	}
	if d := (Polyline{}).DistTo(Point{0, 0}); !math.IsInf(d, 1) {
		t.Fatalf("empty DistTo = %v, want +Inf", d)
	}
}

func TestArcParam(t *testing.T) {
	pl := Polyline{{0, 0}, {10, 0}, {10, 10}}
	if got := pl.ArcParam(0, 0); got != 0 {
		t.Fatalf("ArcParam start = %v", got)
	}
	if got := pl.ArcParam(1, 1); got != 1 {
		t.Fatalf("ArcParam end = %v", got)
	}
	if got := pl.ArcParam(0, 1); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("ArcParam mid = %v, want 0.5", got)
	}
	// Clamping.
	if got := pl.ArcParam(99, 2); got != 1 {
		t.Fatalf("ArcParam clamped = %v, want 1", got)
	}
}

func TestIntersectionCount(t *testing.T) {
	x := Polyline{{-1, -1}, {1, 1}}
	y := Polyline{{-1, 1}, {1, -1}}
	if got := IntersectionCount(x, y, false); got != 1 {
		t.Fatalf("count = %d, want 1", got)
	}
	// Parallel lines never meet.
	z := Polyline{{-1, 2}, {1, 2}}
	if got := IntersectionCount(x, z, false); got != 0 {
		t.Fatalf("count = %d, want 0", got)
	}
	// Zigzag crossing a straight line multiple times.
	zig := Polyline{{0, -1}, {1, 1}, {2, -1}, {3, 1}}
	line := Polyline{{-1, 0}, {4, 0}}
	if got := IntersectionCount(zig, line, false); got != 3 {
		t.Fatalf("zigzag count = %d, want 3", got)
	}
	// Touch counting toggle.
	touch := Polyline{{0, 0}, {1, 1}}
	touched := Polyline{{1, 1}, {2, 0}}
	if got := IntersectionCount(touch, touched, false); got != 0 {
		t.Fatalf("touch not counted = %d, want 0", got)
	}
	if got := IntersectionCount(touch, touched, true); got != 1 {
		t.Fatalf("touch counted = %d, want 1", got)
	}
}

func TestSharedOriginIntersections(t *testing.T) {
	// Two trajectories through the origin: an X shape. Their only meeting
	// is at the origin, which must be excluded.
	a := Polyline{{-1, -1}, {0, 0}, {1, 1}}
	b := Polyline{{-1, 1}, {0, 0}, {1, -1}}
	// Add a genuine off-origin crossing.
	c := Polyline{{-1, 0.5}, {1, 0.5}}
	d := Polyline{{0, 0}, {0.5, 1}}
	for _, tc := range []struct {
		a, b Polyline
		want int
	}{{a, b, 0}, {c, d, 1}} {
		if got := oracleSharedOriginIntersections(tc.a, tc.b, Point{0, 0}, 1e-9); got != tc.want {
			t.Fatalf("unboxed count(%v, %v) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
		if got := boxedCount(tc.a, tc.b, Point{0, 0}, 1e-9); got != tc.want {
			t.Fatalf("boxed count(%v, %v) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestSelfIntersections(t *testing.T) {
	straight := Polyline{{0, 0}, {1, 0}, {2, 0}}
	if got := straight.SelfIntersections(); got != 0 {
		t.Fatalf("straight self-intersections = %d", got)
	}
	// A loop: four segments where the last crosses the first.
	loop := Polyline{{0, 0}, {2, 0}, {2, 1}, {1, -1}}
	if got := loop.SelfIntersections(); got != 1 {
		t.Fatalf("loop self-intersections = %d, want 1", got)
	}
}

func TestOverlapLength(t *testing.T) {
	a := Polyline{{0, 0}, {10, 0}}
	b := Polyline{{0, 0.001}, {10, 0.001}}
	got := OverlapLength(a, b, 0.01, 50)
	if math.Abs(got-10) > 0.5 {
		t.Fatalf("overlap = %v, want about 10", got)
	}
	far := Polyline{{0, 5}, {10, 5}}
	if got := OverlapLength(a, far, 0.01, 50); got != 0 {
		t.Fatalf("far overlap = %v, want 0", got)
	}
}

func TestPolylineValidate(t *testing.T) {
	if err := (Polyline{{0, 0}, {1, 1}}).Validate(); err != nil {
		t.Fatalf("valid polyline rejected: %v", err)
	}
	if err := (Polyline{{math.NaN(), 0}}).Validate(); err == nil {
		t.Fatal("NaN polyline accepted")
	}
	if err := (Polyline{{0, math.Inf(1)}}).Validate(); err == nil {
		t.Fatal("Inf polyline accepted")
	}
}
