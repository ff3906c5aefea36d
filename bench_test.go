// Benchmarks regenerating every table and figure of the paper's
// evaluation, one per artifact (run with `go test -bench=. -benchmem`).
// Each benchmark wraps the corresponding internal/experiments runner at
// quick scale and reports a figure-shaped custom metric alongside the
// timing, so the benchmark output doubles as a compact reproduction table:
//
//	Figure 5  -> coordination-check overheads (max policy-stage CPU ratio)
//	Figure 6  -> max-load reduction as modules grow
//	Figure 7  -> max-load reduction as volume grows
//	Figure 8  -> per-node load spread
//	Figure 10 -> rounding variants as a fraction of the LP bound
//	Figure 11 -> final normalized regret
//	Tables    -> NIDS / NIPS optimization times
//
// cmd/experiments regenerates the full series (use -quick there for the
// same sizes as these benchmarks).
package nwdeploy

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"nwdeploy/internal/experiments"
	"nwdeploy/internal/nips"
)

var benchCfg = experiments.Config{Quick: true}

// BenchmarkNIDSOptimizationTime reproduces the paper's "0.42 seconds to
// compute the optimal solution for a 50-node topology" measurement with
// the pure-Go simplex.
func BenchmarkNIDSOptimizationTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.NIDSOptTime(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Seconds, "lp-sec/op")
	}
}

// BenchmarkNIPSOptimizationTime reproduces the paper's ~220 s NIPS
// optimization-time measurement (relaxation + rounding + greedy + re-solve).
func BenchmarkNIPSOptimizationTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.NIPSOptTime(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Seconds, "pipeline-sec/op")
	}
}

// BenchmarkFig5CoordinationOverhead regenerates Figure 5's standalone
// microbenchmark and reports the worst policy-stage CPU overhead ratio.
func BenchmarkFig5CoordinationOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig5(benchCfg)
		worst := 0.0
		for _, r := range rows {
			worst = math.Max(worst, r.PolicyCPU)
		}
		b.ReportMetric(worst, "max-policy-cpu-overhead")
	}
}

// BenchmarkFig6ModuleScaling regenerates Figure 6 and reports the CPU
// reduction the coordinated deployment achieves at the largest module
// count.
func BenchmarkFig6ModuleScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig6(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		b.ReportMetric(1-last.CoordCPU/last.EdgeCPU, "cpu-reduction@21mods")
	}
}

// BenchmarkFig7VolumeScaling regenerates Figure 7 and reports the CPU and
// memory reductions at the largest traffic volume (paper: ~50% and ~20%).
func BenchmarkFig7VolumeScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig7(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		b.ReportMetric(1-last.CoordCPU/last.EdgeCPU, "cpu-reduction")
		b.ReportMetric(1-last.CoordMem/last.EdgeMem, "mem-reduction")
	}
}

// BenchmarkFig8PerNodeLoads regenerates Figure 8 and reports the edge
// deployment's hotspot-to-median CPU ratio (the imbalance coordination
// removes).
func BenchmarkFig8PerNodeLoads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig8(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		maxEdge, maxCoord := 0.0, 0.0
		for _, r := range rows {
			maxEdge = math.Max(maxEdge, r.EdgeCPU)
			maxCoord = math.Max(maxCoord, r.CoordCPU)
		}
		b.ReportMetric(maxEdge/maxCoord, "edge-vs-coord-hotspot")
	}
}

// BenchmarkFig10RoundingGap regenerates Figure 10 and reports the mean
// fraction of the LP upper bound achieved by each variant (paper: >= 0.7
// for rounding+LP, >= 0.92 for rounding+greedy+LP).
func BenchmarkFig10RoundingGap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig10(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		var lpSum, greedySum float64
		var lpN, greedyN int
		for _, r := range rows {
			switch r.Variant {
			case nips.VariantRoundLP:
				lpSum += r.Mean
				lpN++
			case nips.VariantRoundGreedyLP:
				greedySum += r.Mean
				greedyN++
			}
		}
		b.ReportMetric(lpSum/float64(lpN), "roundlp-frac-of-optlp")
		b.ReportMetric(greedySum/float64(greedyN), "greedy-frac-of-optlp")
	}
}

// BenchmarkFig11OnlineRegret regenerates Figure 11 and reports the mean
// final normalized regret across runs (paper: at most ~15%, trending to 0).
func BenchmarkFig11OnlineRegret(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig11(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		for _, run := range rows {
			sum += math.Abs(run.Series[len(run.Series)-1].Normalized)
		}
		b.ReportMetric(sum/float64(len(rows)), "final-abs-regret")
	}
}

// BenchmarkRedundancyExtension regenerates the Section 2.5 redundancy
// sweep and reports the load multiplier of r=2 over r=1.
func BenchmarkRedundancyExtension(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Redundancy(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[1].MaxLoad/rows[0].MaxLoad, "r2-load-multiplier")
	}
}

// BenchmarkManifestCheck measures the per-packet Figure 3 decision — the
// hot path every node executes for every packet and class.
func BenchmarkManifestCheck(b *testing.B) {
	topo := Internet2()
	tm := GravityMatrix(topo)
	sessions := GenerateSessions(topo, tm, 2000, 9)
	classes := []Class{
		{Name: "signature", CPUPerPkt: 1, MemPerItem: 400},
		{Name: "http", Ports: []uint16{80}, CPUPerPkt: 2, MemPerItem: 600},
	}
	inst, err := BuildNIDSInstance(topo, classes, sessions, UniformCaps(topo.N(), 1e7, 1e9))
	if err != nil {
		b.Fatal(err)
	}
	plan, err := PlanNIDS(inst, NIDSOptions{})
	if err != nil {
		b.Fatal(err)
	}
	h := Hasher{Key: 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := sessions[i%len(sessions)]
		plan.ShouldAnalyze(i%topo.N(), 0, s, h)
	}
}

// BenchmarkAblations regenerates the design-choice comparisons and reports
// the fine-grained extension's memory saving (Section 2.5's proposed
// improvement over the prototype).
func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Ablations(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Name == "fine-grained-mem" {
				b.ReportMetric(1-r.Variant/r.Baseline, "finegrained-mem-saving")
			}
		}
	}
}

// BenchmarkAdversaries plays the FPL deployer against the three adversary
// models and reports the adaptive (evasive) adversary's final regret.
func BenchmarkAdversaries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Adversaries(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Adversary == "evasive" {
				b.ReportMetric(r.FinalRegret, "evasive-final-regret")
			}
		}
	}
}

// BenchmarkProvisioning regenerates the Section 5 bursty-provisioning
// comparison and reports how often a mean-volume plan's promise is overrun
// versus the 95th-percentile plan's.
func BenchmarkProvisioning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Provisioning(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			switch r.Strategy {
			case "mean":
				b.ReportMetric(r.ViolationFraction, "mean-plan-violation-frac")
			case "p95-conservative":
				b.ReportMetric(r.ViolationFraction, "p95-plan-violation-frac")
			}
		}
	}
}

// BenchmarkParallelEmulation runs the Figure 6/7 network-wide emulation
// (both deployments, full module set) with the worker pool off and sized to
// the machine. The pool fans out across nodes only: every node's engine is
// serial (the engine has no internal sharding), and node runs are
// independent, so on multi-core hosts the workers=max sub-benchmark should
// approach a GOMAXPROCS-fold reduction; results are byte-identical either
// way (asserted by the determinism tests).
func BenchmarkParallelEmulation(b *testing.B) {
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := experiments.Config{Quick: true, Workers: workers}
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Fig7(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkObsOverhead reruns the Figure 7 emulation with a live metrics
// registry attached, against the metrics=off sub-benchmark as baseline.
// The instrumentation contract is that the two stay within measurement
// noise of each other (the per-session loop is untouched; aggregates are
// recorded only at run boundaries), so a visible gap here means a counter
// crept into a hot path.
func BenchmarkObsOverhead(b *testing.B) {
	for _, withMetrics := range []bool{false, true} {
		name := "metrics=off"
		if withMetrics {
			name = "metrics=on"
		}
		b.Run(name, func(b *testing.B) {
			cfg := experiments.Config{Quick: true, Workers: 1}
			if withMetrics {
				cfg.Metrics = NewMetrics()
			}
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Fig7(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelFig10 sweeps the Figure 10 (topology x capacity x
// scenario) solver grid serially and on the full worker pool — the second
// tentpole hot path (LP relaxations plus rounding iterations per cell).
func BenchmarkParallelFig10(b *testing.B) {
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := experiments.Config{Quick: true, Workers: workers}
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Fig10(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
