package main

// compare.go is `perf compare a.json b.json`: it holds two result files
// (each one or more runs per workload, as `perf -runs N -o` writes them)
// against the regression bounds BENCHMARK.json fixes. The bounds are read
// from the table BENCHMARK.json is generated from (schema.go), which
// TestBenchmarkManifest keeps identical to the file.

import (
	"fmt"
	"io"
	"math"
	"os"
)

// gate is one end-to-end metric's regression bound and direction.
type gate struct {
	bound       float64
	lowerBetter bool
}

func gates() map[string]gate {
	out := make(map[string]gate, len(endToEnd))
	for _, d := range endToEnd {
		out[d.Name] = gate{bound: d.Bound, lowerBetter: d.Better != "higher"}
	}
	return out
}

// seriesKey names one metric of one workload in one kind of run; its series
// is that metric's value in every run of a file.
type seriesKey struct {
	workload, name string
	traced         bool
}

// runKey names one kind of run of one workload.
type runKey struct {
	workload string
	traced   bool
}

// inputs is what fixes a run's exact counts: the seed its inputs were drawn
// from and the window its iteration count was scaled to.
type inputs struct {
	seed    int64
	seconds int
}

// series is a result file read by metric.
type series struct {
	values map[seriesKey][]float64
	exact  map[seriesKey]bool
	order  []seriesKey // first appearance
	// inputs of every kind of run in the file; mixed where its runs disagree.
	inputs map[runKey]inputs
	mixed  map[runKey]bool
}

func collect(results []*result) series {
	s := series{
		values: make(map[seriesKey][]float64), exact: make(map[seriesKey]bool),
		inputs: make(map[runKey]inputs), mixed: make(map[runKey]bool),
	}
	for _, r := range results {
		rk, in := runKey{r.Workload, r.Traced}, inputs{r.Seed, r.Seconds}
		if have, ok := s.inputs[rk]; ok && have != in {
			s.mixed[rk] = true
		}
		s.inputs[rk] = in
		for _, m := range r.Metrics {
			k := seriesKey{r.Workload, m.Name, r.Traced}
			if _, ok := s.values[k]; !ok {
				s.order = append(s.order, k)
			}
			s.values[k] = append(s.values[k], m.Value)
			s.exact[k] = m.Exact
		}
	}
	return s
}

// row is one line of the comparison: one metric of one workload.
type row struct {
	key              seriesKey
	a, b             float64 // medians over each file's runs
	change           float64 // (b - a) / |a|
	spreadA, spreadB float64 // NaN below two runs
	verdict          string
	regression       bool
}

// judge holds b's runs of one gated metric against a's.
func judge(a, b []float64, g gate) (verdict string, regression bool) {
	ma, mb := median(a), median(b)
	worse := (mb - ma) / math.Abs(ma)
	if !g.lowerBetter {
		worse = -worse
	}
	// Where the run-to-run spread is wider than the bound the medians decide
	// nothing, unless every run of b reads better than every run of a.
	if spread(a) > g.bound || spread(b) > g.bound {
		sa, sb := sorted(a), sorted(b)
		allBetter := sb[len(sb)-1] < sa[0]
		if !g.lowerBetter {
			allBetter = sb[0] > sa[len(sa)-1]
		}
		if !allBetter {
			return "unresolved", false
		}
	}
	if worse <= g.bound {
		return "ok", false
	}
	if len(a) < 2 || len(b) < 2 {
		return "unresolved: one run has no spread, use -runs", false
	}
	return "REGRESSION", true
}

// compareRows builds one row per workload x metric of file a, untraced runs
// first, each in its file's report order. Besides a gated metric past its
// bound and a higher failed_frac, two things are regressions: a metric b no
// longer reports (a workload that crashed, a figure that rotted away), and
// an exact count that differs although both sides drew the same inputs.
func compareRows(gates map[string]gate, a, b []*result) []row {
	sa, sb := collect(a), collect(b)
	var rows []row
	for _, traced := range []bool{false, true} {
		for _, k := range sa.order {
			if k.traced != traced {
				continue
			}
			x, y := sa.values[k], sb.values[k]
			if y == nil {
				rows = append(rows, row{key: k, a: median(x), b: math.NaN(), change: math.NaN(),
					spreadA: spread(x), spreadB: math.NaN(), verdict: "MISSING", regression: true})
				continue
			}
			r := row{key: k, a: median(x), b: median(y), spreadA: spread(x), spreadB: spread(y), verdict: "info"}
			r.change = (r.b - r.a) / math.Abs(r.a)
			rk := runKey{k.workload, k.traced}
			sameInputs := !sa.mixed[rk] && !sb.mixed[rk] && sa.inputs[rk] == sb.inputs[rk]
			g, gated := gates[k.name]
			switch {
			case k.name == "failed_frac":
				r.verdict, r.regression = "ok", r.b > r.a
				if r.regression {
					r.verdict = "REGRESSION"
				}
			case gated && !k.traced:
				r.verdict, r.regression = judge(x, y, g)
				r.verdict += fmt.Sprintf(" (bound %.0f%%)", 100*g.bound)
			case sa.exact[k] && r.a == r.b:
				r.verdict = "exact: same"
			case sa.exact[k] && sameInputs:
				r.verdict, r.regression = "exact: DIFFERS", true
			case sa.exact[k]:
				r.verdict = "exact: differs (other seed or length)"
			}
			rows = append(rows, r)
		}
	}
	return rows
}

func printRows(w io.Writer, rows []row) {
	fmt.Fprintf(w, "%-14s %-48s %14s %14s %9s %8s %8s  %s\n",
		"workload", "metric", "a (median)", "b (median)", "change", "spread_a", "spread_b", "verdict")
	for _, r := range rows {
		name := r.key.name
		if r.key.traced {
			name += " [traced]"
		}
		fmt.Fprintf(w, "%-14s %-48s %14.6g %14.6g %+8.1f%% %7.1f%% %7.1f%%  %s\n",
			r.key.workload, name, r.a, r.b, 100*r.change, 100*r.spreadA, 100*r.spreadB, r.verdict)
	}
}

// compareMain returns 1 on a regression (see compareRows), 2 on bad usage or
// unreadable input.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perf compare a.json b.json")
		return 2
	}
	a, err := readResults(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perf compare:", err)
		return 2
	}
	b, err := readResults(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perf compare:", err)
		return 2
	}
	rows := compareRows(gates(), a, b)
	printRows(os.Stdout, rows)
	for _, r := range rows {
		if r.regression {
			return 1
		}
	}
	return 0
}
