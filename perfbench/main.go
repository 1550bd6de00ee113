// Command perfbench is the repository benchmark. It runs one workload of
// the fault-trajectory flow through the library's public entry points,
// checks the outputs, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload grid-oneshot --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics (tracing off);
// with --trace 1 it carries the per-layer metrics of a traced replay.
// A human-readable report with the machine envelope goes to stderr and,
// with the spans of a traced run, under .bench_build/perfbench-out/.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workers bounds every worker pool the benchmark asks the library for.
// It is part of each workload's definition, never read from the host,
// so the same work is measured on any machine.
const workers = 2

// outDir holds reports and span dumps, inside the checkout.
const outDir = ".bench_build/perfbench-out"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state one workload run fills in.
type run struct {
	ctx    context.Context
	name   string
	seed   int64
	budget time.Duration
	traced bool
	rng    *rand.Rand

	attempted, failed int
	problems          []string
	metrics           map[string]metric
	report            map[string]any
	spans             []span
}

func (r *run) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

// fail records a failed check on one op.
func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(*run) error{
	"paper-atpg":     runPaperATPG,
	"grid-oneshot":   runGridOneshot,
	"ladder-holdout": runLadderHoldout,
	"serve-loopback": runServeLoopback,
}

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "workload seed; the inputs are a pure function of it")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced replay and reports per-layer metrics")
	flag.Parse()
	fn, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	r := &run{
		ctx:     context.Background(),
		name:    *name,
		seed:    *seed,
		budget:  time.Duration(*seconds) * time.Second,
		traced:  *trace == 1,
		rng:     rand.New(rand.NewSource(*seed)),
		metrics: map[string]metric{},
		report:  map[string]any{},
	}
	if err := fn(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if r.attempted < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: no op attempted\n", *name)
		os.Exit(1)
	}
	for k, m := range r.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s is %v\n", *name, k, m.Value)
			os.Exit(1)
		}
	}
	if err := writeReport(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: report: %v\n", err)
		os.Exit(1)
	}
	out, err := json.Marshal(result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func workloadNames() []string {
	var out []string
	for k := range workloads {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// envelope records what a number depends on besides the code, so runs
// on different machines are compared by ratios, not raw times.
func envelope(r *run) map[string]any {
	return map[string]any{
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"workers":    workers,
		"workload":   r.name,
		"seed":       r.seed,
		"seconds":    r.budget.Seconds(),
		"traced":     r.traced,
		"date":       time.Now().UTC().Format(time.RFC3339),
	}
}

// cpuModel is the first "model name" of /proc/cpuinfo, empty elsewhere.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// writeReport prints the human-readable report to stderr and stores it,
// with the spans of a traced run, under outDir.
func writeReport(r *run) error {
	r.report["envelope"] = envelope(r)
	r.report["attempted"] = r.attempted
	r.report["failed"] = r.failed
	r.report["error_frac"] = float64(r.failed) / float64(max(r.attempted, 1))
	if len(r.problems) > 0 {
		r.report["problems"] = r.problems
	}
	r.report["metrics"] = r.metrics
	mode := "e2e"
	if r.traced {
		mode = "trace"
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", r.name, r.seed))
		if err := writeSpans(path, r.spans); err != nil {
			return err
		}
		r.report["spans_file"] = path
		r.report["spans"] = len(r.spans)
	}
	data, err := json.MarshalIndent(r.report, "", "  ")
	if err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, string(data))
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, fmt.Sprintf("report-%s-%s-seed%d.json", mode, r.name, r.seed)), data, 0o644)
}

// peakRSSMB is the process's peak resident set in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// residentHeapMB is the heap memory the Go runtime holds from the OS
// and has not released, in MiB.
func residentHeapMB() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapSys-m.HeapReleased) / (1 << 20)
}

// totalAlloc reads the cumulative heap bytes allocated.
func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// tally accumulates the end-to-end record of a run's timed ops.
type tally struct {
	// sloLimitMS is the workload's latency limit on one op, and tailPct
	// the percentile op_tail_ms reports (see tailPercentile).
	sloLimitMS float64
	tailPct    float64
	// tailWindow, when set, reports op_tail_ms as windowedTail over
	// windows of that many ops instead of one percentile of the run.
	tailWindow int

	latMS   []float64 // successful ops only
	timed   time.Duration
	alloc   uint64
	ops     int
	top1Hit int
	top1N   int
	fitness []float64
	sloMet  int
	// peakMB is the process's peak resident set when the timed ops ended,
	// before any check that runs after them. A workload whose every op
	// starts from memory returned to the OS records each op's resident
	// heap in opPeakMB instead; the median of those is reported.
	peakMB   float64
	opPeakMB []float64
}

// add records one timed op. A failed op misses the latency limit.
func (t *tally) add(d time.Duration, alloc uint64, ok bool) {
	t.ops++
	t.timed += d
	t.alloc += alloc
	if ok {
		t.latMS = append(t.latMS, ms(d))
		if ms(d) <= t.sloLimitMS {
			t.sloMet++
		}
	}
}

// timeOp runs fn and returns its wall time and heap bytes allocated.
func timeOp(fn func() error) (time.Duration, uint64, error) {
	a0 := totalAlloc()
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	return d, totalAlloc() - a0, err
}

// phase is how long one measured phase runs: the whole budget, or in a
// traced run, which measures an untraced and a traced phase and then
// replays layers on their own, two fifths of it.
func (r *run) phase() time.Duration {
	if r.traced {
		return r.budget * 2 / 5
	}
	return r.budget
}

// setupTimes runs setup reps times (once in a traced run, which reports
// no setup_s) and returns each duration in seconds; the caller keeps
// the state of the last rep.
func (r *run) setupTimes(reps int, setup func() error) ([]float64, error) {
	if r.traced {
		reps = 1
	}
	out := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		// Every rep starts from a collected heap, as a fresh process
		// does, so reps do not pay for each other's garbage.
		runtime.GC()
		t0 := time.Now()
		if err := setup(); err != nil {
			return nil, err
		}
		out = append(out, time.Since(t0).Seconds())
	}
	return out, nil
}

// endToEnd fills the end-to-end metrics from the setup times and the
// timed ops.
func (r *run) endToEnd(setup []float64, t *tally) {
	sum := summarize(t.latMS, t.tailPct)
	if t.tailWindow > 0 {
		sum.Tail = windowedTail(t.latMS, t.tailPct, t.tailWindow)
		sum.Beyond = int(float64(t.tailWindow) * (1 - t.tailPct/100))
		sum.TailNote = fmt.Sprintf("median over windows of %d ops of each window's p%g; ops_beyond_tail is per window", t.tailWindow, t.tailPct)
	}
	r.set("setup_s", median(setup), "s")
	r.set("ops_per_s", float64(t.ops)/t.timed.Seconds(), "1/s")
	r.set("op_p50_ms", sum.P50, "ms")
	r.set("op_tail_ms", sum.Tail, "ms")
	r.set("top1_accuracy", float64(t.top1Hit)/float64(max(t.top1N, 1)), "frac")
	var fit float64
	for _, f := range t.fitness {
		fit += f
	}
	r.set("fitness_mean", fit/float64(max(len(t.fitness), 1)), "fitness")
	r.set("slo_met_frac", float64(t.sloMet)/float64(max(t.ops, 1)), "frac")
	r.set("alloc_mb_per_op", float64(t.alloc)/float64(max(t.ops, 1))/(1<<20), "MB")
	peak := t.peakMB
	if len(t.opPeakMB) > 0 {
		peak = median(t.opPeakMB)
	}
	r.set("peak_rss_mb", peak, "MB")
	r.report["latency"] = sum
	r.report["op_ms"] = t.latMS // in op order, for offline analysis
	r.report["setup_s_each"] = setup
	r.report["slo_limit_ms"] = t.sloLimitMS
	r.report["top1"] = fmt.Sprintf("%d/%d", t.top1Hit, t.top1N)
}
