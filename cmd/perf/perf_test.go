package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

func TestMedianAndTail(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of odd count = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of even count = %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	// The midmean averages the half between the quartiles: both tails out.
	if got := midmean([]float64{1000, 1, 2, 3, 4, 5, 6, -1000}); got != 3.5 {
		t.Errorf("midmean = %v, want (2+3+4+5)/4", got)
	}
	if got := midmean([]float64{9, 1, 5}); got != 5 {
		t.Errorf("midmean of three = %v, want their median", got)
	}

	// The tail is the highest percentile with at least ten samples beyond it.
	if _, _, ok := tail(make([]float64, 10)); ok {
		t.Error("ten samples cannot have ten beyond any of them")
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100 .. 1, unsorted on purpose
	}
	v, pct, ok := tail(xs)
	if !ok || v != 90 || pct != 90 {
		t.Errorf("tail of 1..100 = %v at p%v (ok %v), want 90 at p90", v, pct, ok)
	}
	v, pct, ok = tail(xs[:11])
	if !ok || v != 90 || math.Abs(pct-100.0/11) > 1e-9 {
		t.Errorf("tail of 11 samples = %v at p%v (ok %v), want the smallest at p9.09", v, pct, ok)
	}
}

// The driver computes spreads with Python's statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, 1.25, 3.5, 5.75},
		{[]float64{10, 20}, 7.5, 15, 22.5},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if !math.IsNaN(spread([]float64{1})) {
		t.Error("spread of one run should be NaN")
	}
}

func TestWarmupAndArms(t *testing.T) {
	samples := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	r := &run{warm: 3, scale: 0.05}
	if got := r.untraced(samples); len(got) != 7 || got[0] != 3 {
		t.Errorf("untraced run keeps %v, want iterations 3..9", got)
	}
	// Traced: odd iterations carry spans, even ones do not; iterations 0..2
	// are warm-up on both arms.
	r.tr = newTracer(3)
	if got := r.untraced(samples); len(got) != 3 || got[0] != 4 || got[2] != 8 {
		t.Errorf("untraced arm = %v, want 4 6 8", got)
	}
	if got := r.traced(samples); len(got) != 4 || got[0] != 3 || got[3] != 9 {
		t.Errorf("traced arm = %v, want 3 5 7 9", got)
	}
	if r.sized(1000, 10) != 50 || r.sized(100, 10) != 10 {
		t.Errorf("sized at 1/20: %d and %d, want 50 and the floor 10", r.sized(1000, 10), r.sized(100, 10))
	}
}

func TestStopwatchNormalises(t *testing.T) {
	var sw stopwatch
	sw.start()
	calibrate()
	sw.stop()
	if len(sw.ms) != 1 || len(sw.norm) != 1 || sw.ms[0] <= 0 || sw.norm[0] <= 0 {
		t.Fatalf("stopwatch samples: %v %v", sw.ms, sw.norm)
	}
	var total stopwatch
	total.sum(0, &sw, &sw)
	if total.ms[0] != 2*sw.ms[0] || total.norm[0] != 2*sw.norm[0] {
		t.Errorf("sum = %v %v, want twice %v %v", total.ms, total.norm, sw.ms, sw.norm)
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := newTracer(1)
	// Iteration 0 is warm-up and must not count; iteration 1 has a root with
	// two parallel children overlapping by 20 and one later child.
	tr.spans = []span{
		{ID: 0, Parent: -1, Name: "root", Iter: 0, Start: 0, End: 1000},
		{ID: 1, Parent: -1, Name: "root", Iter: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Iter: 1, Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "a", Iter: 1, Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "b", Iter: 1, Start: 70, End: 80},
	}
	l := tr.layers()
	if got := l["root"]; got.count != 1 || got.nanos != 100 || got.selfNs != 40 {
		t.Errorf("root = %+v, want 1 span of 100 with 40 self (children cover 10-60 and 70-80)", got)
	}
	if got := l["a"]; got.count != 2 || got.nanos != 70 || got.selfNs != 70 {
		t.Errorf("a = %+v, want 2 spans totalling 70", got)
	}
	if got := tr.durations("a"); len(got) != 2 || got[0] != 40 || got[1] != 30 {
		t.Errorf("durations(a) = %v", got)
	}

	// A switched-off or nil tracer records nothing.
	live := newTracer(0)
	if id := live.begin("x", -1); id != -1 {
		t.Errorf("switched-off tracer returned span %d", id)
	}
	live.iteration(0, true)
	id := live.begin("x", -1)
	live.end(id)
	if len(live.spans) != 1 || live.spans[0].End < live.spans[0].Start {
		t.Errorf("live tracer spans: %+v", live.spans)
	}
	var none *tracer
	none.iteration(0, true)
	none.end(none.begin("x", -1))
	if len(none.layers()) != 0 {
		t.Error("nil tracer has layers")
	}
}

func fakeRuns(workload string, iter []float64, failedFrac float64, pivots float64) []*result {
	var out []*result
	for _, v := range iter {
		out = append(out, &result{Workload: workload, Metrics: []metric{
			{Name: "iter_norm_ms_mid", Value: v, Unit: "ms"},
			{Name: "failed_frac", Value: failedFrac, Unit: "frac"},
			{Name: "lp.pivots", Value: pivots, Unit: "count", Exact: true},
			{Name: "sessions_per_s", Value: 1e6 / v, Unit: "sessions/s"},
		}})
	}
	return out
}

func TestCompare(t *testing.T) {
	gates := map[string]gate{"iter_norm_ms_mid": {bound: 0.15, lowerBetter: true}}
	base := fakeRuns("w", []float64{100, 101, 99, 100, 102}, 0, 1400)
	find := func(rows []row, name string) row {
		for _, r := range rows {
			if r.key.name == name {
				return r
			}
		}
		t.Fatalf("no row for %s", name)
		return row{}
	}
	cases := []struct {
		name       string
		b          []*result
		verdict    string
		regression bool
	}{
		{"same", fakeRuns("w", []float64{101, 100, 100, 99, 103}, 0, 1400), "ok", false},
		{"within bound", fakeRuns("w", []float64{110, 111, 109, 112, 110}, 0, 1400), "ok", false},
		{"slower", fakeRuns("w", []float64{120, 121, 119, 122, 120}, 0, 1400), "REGRESSION", true},
		{"noisy", fakeRuns("w", []float64{80, 150, 100, 170, 120}, 0, 1400), "unresolved", false},
		{"noisy but every run faster", fakeRuns("w", []float64{40, 70, 50, 90, 60}, 0, 1400), "ok", false},
	}
	for _, c := range cases {
		r := find(compareRows(gates, base, c.b), "iter_norm_ms_mid")
		if !strings.HasPrefix(r.verdict, c.verdict) || r.regression != c.regression {
			t.Errorf("%s: verdict %q regression %v, want %q %v", c.name, r.verdict, r.regression, c.verdict, c.regression)
		}
	}

	// One run a side cannot tell a regression from a slow minute.
	single := compareRows(gates, base[:1], fakeRuns("w", []float64{130}, 0, 1400))
	if r := find(single, "iter_norm_ms_mid"); r.regression || !strings.HasPrefix(r.verdict, "unresolved") {
		t.Errorf("single runs: %+v", r)
	}

	rows := compareRows(gates, base, fakeRuns("w", []float64{100, 100, 100}, 0.01, 1401))
	if r := find(rows, "failed_frac"); !r.regression {
		t.Error("a higher failed_frac must be a regression")
	}
	// Both sides drew the same inputs, so a count that differs is a regression.
	if r := find(rows, "lp.pivots"); r.verdict != "exact: DIFFERS" || !r.regression {
		t.Errorf("exact count row, same inputs: %+v", r)
	}
	if r := find(rows, "sessions_per_s"); r.verdict != "info" || r.regression {
		t.Errorf("ungated metric row: %+v", r)
	}
	var buf bytes.Buffer
	printRows(&buf, rows)
	if n := strings.Count(buf.String(), "\n"); n != len(rows)+1 {
		t.Errorf("printed %d lines for %d rows", n, len(rows))
	}
	// Across seeds a count may differ.
	other := fakeRuns("w", []float64{100, 100, 100}, 0, 1401)
	for _, r := range other {
		r.Seed = 2
	}
	if r := find(compareRows(gates, base, other), "lp.pivots"); !strings.HasPrefix(r.verdict, "exact: differs") || r.regression {
		t.Errorf("exact count row, other seed: %+v", r)
	}

	// What file a reports and file b does not is missing, and a regression:
	// a workload b never ran (or crashed in), a metric that rotted away.
	rows = compareRows(gates, base, fakeRuns("other", []float64{1}, 0, 1))
	if len(rows) != 4 {
		t.Errorf("%d rows for a workload only a ran, want its 4 metrics", len(rows))
	}
	for _, r := range rows {
		if r.verdict != "MISSING" || !r.regression {
			t.Errorf("row for a workload b lacks: %+v", r)
		}
	}
	short := fakeRuns("w", []float64{100, 101, 99}, 0, 1400)
	for _, r := range short {
		r.Metrics = r.Metrics[1:] // the gated metric is gone
	}
	rows = compareRows(gates, base, short)
	if r := find(rows, "iter_norm_ms_mid"); r.verdict != "MISSING" || !r.regression {
		t.Errorf("row for a gated metric b lacks: %+v", r)
	}
	if r := find(rows, "lp.pivots"); r.verdict != "exact: same" {
		t.Errorf("row beside a missing one: %+v", r)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// BENCHMARK.json is generated from the tables in schema.go and main.go
// (`go run ./cmd/perf manifest > BENCHMARK.json`) and must meet the
// driver's limits.
func TestBenchmarkManifest(t *testing.T) {
	want, err := benchmarkManifest(runSeconds)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json is stale: regenerate it with `go run ./cmd/perf manifest > BENCHMARK.json`")
	}
	if len(want) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(want))
	}
	if len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) < 1 || len(endToEnd) > 16 || len(perLayer) < 1 || len(perLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics are outside the driver's limits",
			len(workloads), len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q breaks the driver's naming rule", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		name(w.name)
		if len(w.why) > 200 || strings.ContainsAny(w.why, "\n\r") || w.why == "" {
			t.Errorf("workload %s: why must be one line of at most 200 characters, is %d", w.name, len(w.why))
		}
	}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	hasSetup := false
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q breaks the driver's rule", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better is %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("end-to-end metrics must include setup_s in s, lower is better")
	}
}

// TestSmoke runs every workload at 1/20 size, one iteration untraced and
// one per arm traced, so the benchmark cannot silently rot: every metric
// BENCHMARK.json names must come out, once, finite, on exactly the workloads
// schema.go declares it on — ISSUE 12's end-to-end names in untraced runs
// too — and the driver's line must carry all of them.
func TestSmoke(t *testing.T) {
	declared := map[string]metricDef{}
	for _, d := range perLayer {
		declared[d.Name] = d
	}
	plain := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, tr, err := runWorkload(w, runOptions{seed: 7, seconds: 1, scale: 0.05, traced: traced, warm: 0, iters: 1, setups: 1})
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (traced %v): %d of %d operations failed: %v", w.name, traced, res.Failed, res.Attempted, res.Failures)
			}
			if traced != (tr != nil) {
				t.Errorf("%s: traced %v but tracer %v", w.name, traced, tr)
			}
			seen := map[string]bool{}
			for _, m := range res.Metrics {
				if seen[m.Name] {
					t.Errorf("%s (traced %v): metric %s emitted twice", w.name, traced, m.Name)
				}
				seen[m.Name] = true
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s (traced %v): metric %s = %v", w.name, traced, m.Name, m.Value)
				}
				if !plain.MatchString(m.Name) {
					t.Errorf("%s: metric name %q", w.name, m.Name)
				}
				if d, ok := declared[m.Name]; ok && !d.on(w.name) {
					t.Errorf("%s (traced %v): reports %s, which schema.go does not declare on it", w.name, traced, m.Name)
				}
			}
			for _, d := range endToEnd {
				if m, ok := res.get(d.Name); !ok || m.Value <= 0 {
					t.Errorf("%s (traced %v): end-to-end metric %s = %v (reported %v); it must never be 0", w.name, traced, d.Name, m.Value, ok)
				}
			}
			for _, d := range perLayer {
				if d.on(w.name) && (traced || d.Untraced) && !seen[d.Name] {
					t.Errorf("%s (traced %v): does not report %s", w.name, traced, d.Name)
				}
			}
			line, err := res.driverLine()
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.name, traced, err)
			}
			var doc struct {
				Correct   *bool `json:"correct"`
				Attempted *int  `json:"attempted"`
				Failed    *int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			dec := json.NewDecoder(bytes.NewReader(line))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&doc); err != nil || doc.Correct == nil || doc.Attempted == nil || doc.Failed == nil {
				t.Fatalf("%s: driver line %s: %v", w.name, line, err)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(doc.Metrics) != len(defs) {
				t.Errorf("%s (traced %v): driver line has %d metrics, BENCHMARK.json lists %d", w.name, traced, len(doc.Metrics), len(defs))
			}
			for _, d := range defs {
				if m, ok := doc.Metrics[d.Name]; !ok || m.Value == nil || m.Unit != d.Unit {
					t.Errorf("%s (traced %v): driver line lacks %s in %s", w.name, traced, d.Name, d.Unit)
				}
			}
		}
	}
	// Every per-layer metric must be declared on workloads that exist.
	for _, d := range perLayer {
		for _, name := range d.On {
			if _, ok := findWorkload(name); !ok {
				t.Errorf("per-layer metric %s is declared on unknown workload %q", d.Name, name)
			}
		}
	}
}
