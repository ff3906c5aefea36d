package main

// run.go is the harness every workload runs under: closed loop, one client,
// a fixed iteration count, a warm-up discard, one sample per iteration.

import (
	"fmt"
	"math"
	"runtime"
	"time"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	// itersPerSec pins the iteration count: a run measures
	// round(itersPerSec x seconds) iterations, sized on the reference box so
	// the measured window lasts about `seconds`. A fixed count (not a
	// deadline) makes both sides of a comparison do identical work and makes
	// exact counters repeat.
	itersPerSec float64
	// open builds the workload's inputs from the run's seed and everything
	// the first iteration needs; the harness times it as set-up.
	open func(r *run) (opened, error)
}

// opened is a workload whose inputs are built.
type opened interface {
	// measure performs total iterations, timing each on r.sw.
	measure(total int) error
	// report checks outputs and adds the workload's own metrics; in a traced
	// run it also probes the layers.
	report()
	close()
}

// run is the state one workload run shares with the harness.
type run struct {
	seed  int64
	scale float64 // 1 is benchmark size; the smoke test runs at 1/20
	warm  int
	tr    *tracer // nil in an untraced run
	sw    stopwatch
	// setupMs, when a workload's open sets it, replaces the harness's own
	// timing of that open call (the cluster's set-up ends inside one call).
	setupMs float64

	attempted, failed int
	failures          []string
	metrics           []metric
}

// sized scales an input size, never below min.
func (r *run) sized(n, min int) int {
	if s := int(math.Round(float64(n) * r.scale)); s > min {
		return s
	}
	return min
}

// probes is how often a layer probe repeats: n at benchmark size, once in
// the smoke test, which only checks that the probe runs.
func (r *run) probes(n int) int {
	if r.scale < 1 {
		return 1
	}
	return n
}

// sub derives an independent input seed (SplitMix64 step).
func (r *run) sub(k int) int64 {
	z := uint64(r.seed) + uint64(k+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// op counts n attempted operations of which bad failed, with the reason.
func (r *run) op(n, bad int, format string, args ...any) {
	r.attempted += n
	if bad > 0 {
		r.failed += bad
		if len(r.failures) < 10 {
			r.failures = append(r.failures, fmt.Sprintf(format, args...))
		}
	}
}

// check counts one operation that must hold.
func (r *run) check(ok bool, format string, args ...any) {
	bad := 0
	if !ok {
		bad = 1
	}
	r.op(1, bad, format, args...)
}

func (r *run) add(m metric) { r.metrics = append(r.metrics, m) }

func (r *run) value(name string, v float64, unit string) {
	r.add(metric{Name: name, Value: v, Unit: unit})
}

func (r *run) exact(name string, v float64, unit string) {
	r.add(metric{Name: name, Value: v, Unit: unit, Exact: true})
}

func (r *run) noted(name string, v float64, unit, note string) {
	r.add(metric{Name: name, Value: v, Unit: unit, Note: note})
}

// timing reports a median with its sample count and tail.
func (r *run) timing(name string, samples []float64, unit string) {
	m := metric{Name: name, Value: median(samples), Unit: unit, Samples: len(samples)}
	if v, pct, ok := tail(samples); ok {
		m.Tail, m.TailPct = v, pct
	}
	r.add(m)
}

// loop runs fn for iterations 0..total-1. In a traced run odd iterations
// record spans and even ones do not.
func (r *run) loop(total int, fn func(i int) error) error {
	for i := 0; i < total; i++ {
		r.tr.iteration(i, i%2 == 1)
		if err := fn(i); err != nil {
			return fmt.Errorf("iteration %d: %w", i, err)
		}
	}
	r.tr.iteration(total, false)
	return nil
}

// untraced returns the measured samples (one per iteration, warm-up
// included) that carried no spans: all past the warm-up in an untraced run,
// the even iterations past it in a traced one.
func (r *run) untraced(samples []float64) []float64 {
	skip := r.warm
	if r.tr != nil {
		samples, _ = alternate(samples)
		skip = (r.warm + 1) / 2
	}
	if skip < len(samples) {
		return samples[skip:]
	}
	return nil
}

// traced returns the measured samples that carried spans.
func (r *run) traced(samples []float64) []float64 {
	_, odd := alternate(samples)
	if skip := r.warm / 2; skip < len(odd) {
		return odd[skip:]
	}
	return nil
}

// reps times fn n times (after one untimed call) and returns the samples in
// ns: the probe helper for layer costs measured outside the main loop.
func reps(n int, fn func()) []float64 {
	fn()
	out := make([]float64, n)
	for i := range out {
		out[i] = timeNs(fn)
	}
	return out
}

func timeNs(fn func()) float64 {
	t0 := time.Now()
	fn()
	return float64(time.Since(t0).Nanoseconds())
}

// Set-ups are repeated until they have used setupBudgetMs, at most maxSetups
// times, so that only a set-up of about a second is judged on three samples.
const (
	setupBudgetMs = 2500
	maxSetups     = 15
)

type runOptions struct {
	seed    int64
	seconds int
	scale   float64 // input-size factor: 1 but in the smoke test
	traced  bool
	warm    int // warm-up iterations to discard
	iters   int // measured iterations; 0 selects itersPerSec x seconds
	setups  int // how many times to set up at least (the median is reported)
	// setupBudgetMs keeps setting up past that count while the set-ups so far
	// took less than this, up to maxSetups.
	setupBudgetMs float64
}

// runWorkload runs one workload once and returns its result.
func runWorkload(w workload, o runOptions) (*result, *tracer, error) {
	runtime.GOMAXPROCS(maxProcs())
	r := &run{seed: o.seed, scale: o.scale, warm: o.warm}
	if o.traced {
		r.tr = newTracer(o.warm)
	}
	iters := o.iters
	if iters == 0 {
		iters = int(math.Round(w.itersPerSec * float64(o.seconds)))
	}
	if iters < 1 {
		iters = 1
	}
	if o.traced && iters < 2 {
		iters = 2 // one iteration per arm
	}

	// Set up several times and keep the last: set-up time is a gated metric,
	// and one sample of a sub-second set-up is mostly scheduler noise. Cheap
	// set-ups repeat until they have filled setupBudgetMs.
	var inst opened
	var setupNorm []float64
	for spent := 0.0; len(setupNorm) < o.setups || (spent < o.setupBudgetMs && len(setupNorm) < maxSetups); {
		if inst != nil {
			inst.close()
		}
		// The kernel brackets the set-up, with the collector settled: still
		// marking the previous set-up's heap it would slow the kernel.
		runtime.GC()
		kernel := calibrate()
		t0 := time.Now()
		var err error
		inst, err = w.open(r)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		took := float64(time.Since(t0).Nanoseconds()) / 1e6
		spent += took
		if r.setupMs > 0 {
			took, r.setupMs = r.setupMs, 0
		}
		runtime.GC()
		kernel = (kernel + calibrate()) / 2
		setupNorm = append(setupNorm, atReference(took, kernel))
	}
	defer inst.close()

	runtime.GC()
	if err := inst.measure(r.warm + iters); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", w.name, err)
	}
	norm := r.untraced(r.sw.norm)
	m := metric{Name: "iter_norm_ms_mid", Value: midmean(norm), Unit: "ms", Samples: len(norm), Note: "interquartile mean, at reference speed"}
	if v, pct, ok := tail(norm); ok {
		m.Tail, m.TailPct = v, pct
	}
	r.add(m)
	r.add(metric{Name: "setup_s", Value: midmean(setupNorm) / 1e3, Unit: "s", Samples: len(setupNorm), Note: "interquartile mean, at reference speed"})
	r.add(metric{Name: "alloc_kb_per_iter", Value: median(r.untraced(r.sw.kb)), Unit: "KB", Samples: len(norm), Note: "median iteration"})
	r.noted("perf.speed_factor", calNominalMs/median(r.untraced(r.sw.kernel)), "ratio", "reference kernel time / measured: below 1 the box ran slow")
	inst.report()
	if r.tr != nil {
		r.noted("perf.trace_overhead_frac", midmean(r.traced(r.sw.norm))/midmean(norm)-1, "frac",
			"traced / untraced iter_norm_ms_mid - 1, alternating iterations")
	}
	r.value("process.peak_rss_mb", peakRSSMB(), "MB")
	r.value("failed_frac", float64(r.failed)/float64(r.attempted), "frac")

	res := &result{
		Workload: w.name, Seed: o.seed, Seconds: o.seconds, Traced: o.traced,
		Iterations: len(r.sw.ms) - r.warm, Warmup: r.warm,
		Attempted: r.attempted, Failed: r.failed, Correct: r.failed == 0,
		Failures: r.failures, Metrics: r.metrics, Env: readEnv(),
	}
	return res, r.tr, nil
}
