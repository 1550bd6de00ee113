package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile.
const minBeyond = 10

// quantile returns the p-quantile (0 ≤ p ≤ 1) of sorted by linear
// interpolation between closest ranks (the R-7 / NumPy default).
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return sorted[0]
	}
	h := p * float64(n-1)
	lo := int(math.Floor(h))
	if lo >= n-1 {
		return sorted[n-1]
	}
	return sorted[lo] + (h-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// quantileOf returns the p-quantile of xs without modifying it.
func quantileOf(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, p)
}

// median returns the median of xs without modifying it.
func median(xs []float64) float64 { return quantileOf(xs, 0.5) }

// beyond is how many of n samples lie above the pct-th percentile.
func beyond(n int, pct float64) float64 { return float64(n) * (1 - pct/100) }

// tailPercentile returns want when at least minBeyond of n samples lie
// above it, and otherwise the highest whole percentile that has them.
// Each workload fixes want in its definition, so that the reported
// percentile does not move when a change makes ops faster or slower by
// a few percent: the highest percentile its op count in a run supports,
// or lower where rarer heavy ops form a second mode (serve-loopback).
// The fallback only guards runs far short of that count. ok is false when even the
// median lacks minBeyond samples beyond it; the caller then reports
// the maximum.
func tailPercentile(n int, want float64) (p float64, ok bool) {
	if beyond(n, want) >= minBeyond-1e-9 {
		return want, true
	}
	for q := math.Floor(want); q >= 50; q-- {
		if beyond(n, q) >= minBeyond-1e-9 {
			return q, true
		}
	}
	return 100, false
}

// latencySummary is the timing part of an end-to-end report.
type latencySummary struct {
	N        int     `json:"n"`
	P50      float64 `json:"p50_ms"`
	TailPct  float64 `json:"tail_percentile"`
	Tail     float64 `json:"tail_ms"`
	Beyond   int     `json:"ops_beyond_tail"`
	Max      float64 `json:"max_ms"`
	TailNote string  `json:"tail_note,omitempty"`
}

// summarize computes the median and the tailPct-th percentile (see
// tailPercentile) of latencies in milliseconds.
func summarize(ms []float64, tailPct float64) latencySummary {
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	out := latencySummary{N: len(s)}
	if len(s) == 0 {
		return out
	}
	out.P50 = quantile(s, 0.5)
	out.Max = s[len(s)-1]
	p, ok := tailPercentile(len(s), tailPct)
	out.TailPct = p
	if p != tailPct {
		out.TailNote = fmt.Sprintf("too few ops for p%g", tailPct)
	}
	if ok {
		out.Tail = quantile(s, p/100)
	} else {
		out.Tail = out.Max
		out.TailNote = "fewer than 20 ops: tail is the maximum"
	}
	for _, v := range s {
		if v > out.Tail {
			out.Beyond++
		}
	}
	return out
}

// interval is a half-open time range [lo, hi) in nanoseconds.
type interval struct{ lo, hi int64 }

// coveredNanos returns how much of [lo, hi) the union of ivs covers.
// Overlapping intervals (children running on parallel workers) count
// once.
func coveredNanos(lo, hi int64, ivs []interval) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if b > a {
			clipped = append(clipped, interval{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total int64
	cur := interval{-1, -1}
	for _, iv := range clipped {
		if iv.lo > cur.hi {
			total += cur.hi - cur.lo
			cur = iv
			continue
		}
		cur.hi = max(cur.hi, iv.hi)
	}
	return total + cur.hi - cur.lo
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// windowedTail splits ms (in op order) into consecutive windows of
// window ops, takes each full window's pct-th percentile and returns
// their median. A host stall that slows a few windows then moves the
// reported tail no more than it moves the median, while each window's
// percentile still keeps minBeyond samples beyond it when window ≥
// minBeyond/(1 − pct/100). Fewer ops than one window fall back to the
// run-wide percentile.
func windowedTail(lat []float64, pct float64, window int) float64 {
	if len(lat) < window {
		return quantileOf(lat, pct/100)
	}
	var tails []float64
	for lo := 0; lo+window <= len(lat); lo += window {
		tails = append(tails, quantileOf(lat[lo:lo+window], pct/100))
	}
	return median(tails)
}
