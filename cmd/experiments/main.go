// Command experiments regenerates every table and figure of the paper's
// evaluation as tab-separated series on stdout.
//
// Usage:
//
//	experiments [-quick] [-workers n] [-only fig5,fig6,fig7,fig8,fig10,fig11,opttime,redundancy,ablations,adversaries,chaos,overload,scenarios]
//	            [-metrics run.json] [-trace run.trace.jsonl] [-pprof 127.0.0.1:6060]
//	            [-scenarios-json out.json] [-scenarios-assert]
//
// With -quick the reduced workload sizes are used (seconds per experiment);
// without it the full evaluation sizes run (several minutes on one core —
// the LP solver is pure Go). -workers sizes the worker pool (0 = GOMAXPROCS,
// 1 = serial); the output is byte-identical for every value. Each block is
// prefixed by a "# figure" header naming the paper artifact it reproduces
// and the workload parameters, so the output can be diffed across runs and
// fed straight to a plotter. -metrics dumps the suite's accumulated solver
// and emulation counters as JSON on exit; -trace records the chaos and
// overload runners' flight recorder and writes its JSONL dump on exit
// (forcing the experiment blocks serial, since a shared tracer across
// concurrent blocks would interleave component sequences); -pprof serves
// live profiling, /metrics, and /trace while the suite runs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"nwdeploy/internal/experiments"
	"nwdeploy/internal/obs"
	"nwdeploy/internal/obs/obshttp"
	"nwdeploy/internal/parallel"
	"nwdeploy/internal/trace"
)

// runner is one experiment block: it renders its whole output (header plus
// rows) into a string so the blocks can execute on a worker pool and still
// print in canonical order.
type runner struct {
	name string
	fn   func(experiments.Config) (string, error)
}

// runners lists every experiment block in canonical output order.
func runners(scenariosJSON string, scenariosAssert bool) []runner {
	return []runner{
		{"fig5", fig5},
		{"fig6", fig6},
		{"fig7", fig7},
		{"fig8", fig8},
		{"opttime", optTimes},
		{"fig10", fig10},
		{"fig11", fig11},
		{"fig10robustness", fig10robustness},
		{"redundancy", redundancy},
		{"ablations", ablations},
		{"adversaries", adversaries},
		{"provisioning", provisioning},
		{"chaos", chaosResilience},
		{"overload", overloadResilience},
		{"scenarios", scenariosRunner(scenariosJSON, scenariosAssert)},
	}
}

// selectRunners resolves -only against the block list: empty selects every
// block, otherwise exactly the named ones, in canonical order. A name that
// matches no block is an error naming the valid ones — a typo must not look
// like a suite that ran and printed nothing. withScenarios (-scenarios-json)
// adds the scenarios block to a non-empty selection.
func selectRunners(all []runner, only string, withScenarios bool) ([]runner, error) {
	if only == "" {
		return all, nil
	}
	known := make(map[string]bool, len(all))
	names := make([]string, len(all))
	for i, r := range all {
		known[r.name], names[i] = true, r.name
	}
	want := map[string]bool{"scenarios": withScenarios}
	var unknown []string
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		if !known[name] {
			unknown = append(unknown, strconv.Quote(name))
		}
		want[name] = true
	}
	if len(unknown) > 0 {
		return nil, fmt.Errorf("-only: unknown experiment %s (valid: %s)",
			strings.Join(unknown, ", "), strings.Join(names, ","))
	}
	var selected []runner
	for _, r := range all {
		if want[r.name] {
			selected = append(selected, r)
		}
	}
	return selected, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	quick := flag.Bool("quick", false, "use reduced workload sizes")
	workers := flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS, 1 = serial); output is identical for every value")
	only := flag.String("only", "", "comma-separated subset of experiments to run")
	metricsPath := flag.String("metrics", "", "write a JSON metrics snapshot to this file on exit")
	tracePath := flag.String("trace", "", "record the chaos/overload flight recorder and write its JSONL dump to this file (forces serial experiment blocks)")
	pprofAddr := flag.String("pprof", "", "serve /debug/pprof, /debug/vars, /metrics, and /trace on this address")
	scenariosJSON := flag.String("scenarios-json", "", "write the scenario-grid rows as JSON to this file (implies running the scenarios block)")
	scenariosAssert := flag.Bool("scenarios-assert", false, "fail unless every scenario row meets its acceptance bar (floor held, no SLO violations, flood visible, sublinear regret)")
	flag.Parse()
	selected, err := selectRunners(runners(*scenariosJSON, *scenariosAssert), *only, *scenariosJSON != "")
	if err != nil {
		log.Fatal(err)
	}

	metrics := obs.New()
	metrics.Publish("nwdeploy")
	var tracer *trace.Tracer
	if *tracePath != "" {
		tracer = trace.New(trace.Options{Seed: 29})
	}
	if *pprofAddr != "" {
		go func() {
			if err := obshttp.Serve(*pprofAddr, metrics, tracer); err != nil {
				log.Printf("pprof server: %v", err)
			}
		}()
	}

	// Independent experiment blocks fan out across the pool; when several
	// run at once, each keeps its inner sweeps serial so the pool is not
	// oversubscribed. A lone block gets the whole pool for its sweeps.
	runnerWorkers := parallel.Resolve(*workers, len(selected))
	if tracer != nil {
		// One tracer shared by concurrent blocks would interleave component
		// event sequences nondeterministically; serial blocks keep the dump
		// a pure function of the flags.
		runnerWorkers = 1
	}
	cfg := experiments.Config{Quick: *quick, Workers: *workers, Metrics: metrics, Trace: tracer}
	if runnerWorkers > 1 {
		cfg.Workers = 1
	}
	outputs, err := parallel.MapErr(runnerWorkers, len(selected), func(i int) (string, error) {
		out, err := selected[i].fn(cfg)
		if err != nil {
			return "", fmt.Errorf("%s: %w", selected[i].name, err)
		}
		return out, nil
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, out := range outputs {
		os.Stdout.WriteString(out)
	}
	if tracer != nil {
		f, err := os.Create(*tracePath)
		if err != nil {
			log.Fatalf("creating trace file: %v", err)
		}
		if err := tracer.Dump(f, "run_end"); err != nil {
			log.Fatalf("writing trace: %v", err)
		}
		if err := f.Close(); err != nil {
			log.Fatalf("closing trace file: %v", err)
		}
	}
	if *metricsPath != "" {
		if err := metrics.WriteFile(*metricsPath); err != nil {
			log.Fatalf("writing metrics: %v", err)
		}
	}
}

func header(b *strings.Builder, figure, detail string) {
	fmt.Fprintf(b, "\n# %s — %s\n", figure, detail)
}

func fig5(cfg experiments.Config) (string, error) {
	var b strings.Builder
	header(&b, "Figure 5", "per-module CPU and memory overhead of the coordination checks (policy-stage vs event-stage)")
	fmt.Fprintln(&b, "module\tcpu_policy\tcpu_event\tmem_policy\tmem_event")
	for _, r := range experiments.Fig5(cfg) {
		fmt.Fprintf(&b, "%s\t%.4f\t%.4f\t%.4f\t%.4f\n", r.Module, r.PolicyCPU, r.EventCPU, r.PolicyMem, r.EventMem)
	}
	return b.String(), nil
}

func fig6(cfg experiments.Config) (string, error) {
	rows, err := experiments.Fig6(cfg)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	header(&b, "Figure 6", "max per-node footprint vs number of NIDS modules (Internet2)")
	fmt.Fprintln(&b, "modules\tedge_mem\tcoord_mem\tedge_cpu\tcoord_cpu")
	for _, r := range rows {
		fmt.Fprintf(&b, "%d\t%.4g\t%.4g\t%.4g\t%.4g\n", r.Modules, r.EdgeMem, r.CoordMem, r.EdgeCPU, r.CoordCPU)
	}
	return b.String(), nil
}

func fig7(cfg experiments.Config) (string, error) {
	rows, err := experiments.Fig7(cfg)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	header(&b, "Figure 7", "max per-node footprint vs total traffic volume (21 modules)")
	fmt.Fprintln(&b, "sessions\tedge_mem\tcoord_mem\tedge_cpu\tcoord_cpu")
	for _, r := range rows {
		fmt.Fprintf(&b, "%d\t%.4g\t%.4g\t%.4g\t%.4g\n", r.Sessions, r.EdgeMem, r.CoordMem, r.EdgeCPU, r.CoordCPU)
	}
	return b.String(), nil
}

func fig8(cfg experiments.Config) (string, error) {
	rows, err := experiments.Fig8(cfg)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	header(&b, "Figure 8", "per-node footprint, edge vs coordinated (100k sessions, 21 modules)")
	fmt.Fprintln(&b, "node\tcity\tedge_mem\tcoord_mem\tedge_cpu\tcoord_cpu")
	for _, r := range rows {
		fmt.Fprintf(&b, "%d\t%s\t%.4g\t%.4g\t%.4g\t%.4g\n", r.Node, r.City, r.EdgeMem, r.CoordMem, r.EdgeCPU, r.CoordCPU)
	}
	return b.String(), nil
}

func optTimes(cfg experiments.Config) (string, error) {
	var b strings.Builder
	header(&b, "Optimization time", "LP/MILP-approx solve times on a 50-node topology (paper: 0.42s NIDS with CPLEX, ~220s NIPS)")
	fmt.Fprintln(&b, "problem\tnodes\tseconds\tpaper_seconds")
	nids, err := experiments.NIDSOptTime(cfg)
	if err != nil {
		return "", fmt.Errorf("nids: %w", err)
	}
	fmt.Fprintf(&b, "%s\t%d\t%.3f\t%.2f\n", nids.Problem, nids.Nodes, nids.Seconds, nids.PaperSeconds)
	np, err := experiments.NIPSOptTime(cfg)
	if err != nil {
		return "", fmt.Errorf("nips: %w", err)
	}
	fmt.Fprintf(&b, "%s\t%d\t%.3f\t%.2f\n", np.Problem, np.Nodes, np.Seconds, np.PaperSeconds)
	return b.String(), nil
}

func fig10(cfg experiments.Config) (string, error) {
	rows, err := experiments.Fig10(cfg)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	header(&b, "Figure 10", "rounding algorithms as a fraction of the LP upper bound vs rule capacity constraint")
	fmt.Fprintln(&b, "topology\tcap_frac\tvariant\tmean\tmin\tmax")
	for _, r := range rows {
		fmt.Fprintf(&b, "%s\t%.2f\t%s\t%.4f\t%.4f\t%.4f\n", r.Topology, r.CapFrac, r.Variant, r.Mean, r.Min, r.Max)
	}
	return b.String(), nil
}

func fig11(cfg experiments.Config) (string, error) {
	rows, err := experiments.Fig11(cfg)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	header(&b, "Figure 11", "normalized regret of the FPL online adaptation over epochs")
	fmt.Fprintln(&b, "run\tepoch\tnormalized_regret")
	for _, run := range rows {
		for _, pt := range run.Series {
			fmt.Fprintf(&b, "%d\t%d\t%.4f\n", run.Run, pt.Epoch, pt.Normalized)
		}
	}
	return b.String(), nil
}

func redundancy(cfg experiments.Config) (string, error) {
	rows, err := experiments.Redundancy(cfg)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	header(&b, "Section 2.5", "minimized max load vs redundancy level r")
	fmt.Fprintln(&b, "r\tmax_load")
	for _, r := range rows {
		fmt.Fprintf(&b, "%d\t%.4f\n", r.R, r.MaxLoad)
	}
	return b.String(), nil
}

func ablations(cfg experiments.Config) (string, error) {
	rows, err := experiments.Ablations(cfg)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	header(&b, "Ablations", "design-choice comparisons (LP vs greedy, fine-grained coordination, keyed hash)")
	fmt.Fprintln(&b, "name\tmetric\tbaseline\tvariant")
	for _, r := range rows {
		fmt.Fprintf(&b, "%s\t%s\t%.4g\t%.4g\n", r.Name, r.Metric, r.Baseline, r.Variant)
	}
	return b.String(), nil
}

func adversaries(cfg experiments.Config) (string, error) {
	rows, err := experiments.Adversaries(cfg)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	header(&b, "Adversaries", "FPL online deployer vs oblivious, drifting, and adaptive adversaries (Section 3.5 future work)")
	fmt.Fprintln(&b, "adversary\tfinal_normalized_regret\tfpl_total_objective")
	for _, r := range rows {
		fmt.Fprintf(&b, "%s\t%.4f\t%.5g\n", r.Adversary, r.FinalRegret, r.FPLTotal)
	}
	return b.String(), nil
}

func fig10robustness(cfg experiments.Config) (string, error) {
	rows, err := experiments.Fig10Robustness(cfg)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	header(&b, "Figure 10 robustness", "rounding variants under other match-rate distributions (paper: 'results hold', shown for brevity)")
	fmt.Fprintln(&b, "distribution\tvariant\tmean_frac_of_optlp")
	for _, r := range rows {
		fmt.Fprintf(&b, "%s\t%s\t%.4f\n", r.Dist, r.Variant, r.Mean)
	}
	return b.String(), nil
}

func chaosResilience(cfg experiments.Config) (string, error) {
	rows, err := experiments.Chaos(cfg)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	header(&b, "Chaos resilience", "cluster runtime under seeded fault injection: coverage achieved vs the Section 2.5 prediction, per epoch")
	fmt.Fprintln(&b, "scenario\tr\tepoch\tctrl_down\tdown_nodes\tsynced\tstale\tdark\tfetch_attempts\tfetch_failures\talerts\tworst_cov\tavg_cov\tpredicted_worst")
	for _, r := range rows {
		fmt.Fprintf(&b, "%s\t%d\t%d\t%v\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%.4f\t%.4f\t%.4f\n",
			r.Scenario, r.Redundancy, r.Epoch, r.ControllerDown, r.DownNodes,
			r.Synced, r.Stale, r.Dark, r.FetchAttempts, r.FetchFailures, r.Alerts,
			r.WorstCoverage, r.AvgCoverage, r.PredictedWorst)
	}
	return b.String(), nil
}

func overloadResilience(cfg experiments.Config) (string, error) {
	rows, err := experiments.Overload(cfg)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	header(&b, "Overload resilience", "burst amplitude x governor x replan mode: budget overruns, shed width, coverage, and replan cost")
	fmt.Fprintln(&b, "scenario\tburst\tgovernor\treplan\twarm\tover_budget\tfloor_limited\tshed_width_max\tworst_cov\tavg_cov\treplans\tmissed\treplan_iters")
	for _, r := range rows {
		fmt.Fprintf(&b, "%s\t%.1f\t%v\t%v\t%v\t%d\t%d\t%.4f\t%.4f\t%.4f\t%d\t%d\t%d\n",
			r.Scenario, r.BurstFactor, r.Governor, r.Replan, r.WarmReplan,
			r.OverBudget, r.FloorLimited, r.ShedWidthMax,
			r.WorstCoverage, r.AvgCoverage, r.Replans, r.MissedReplans, r.ReplanIters)
	}
	return b.String(), nil
}

// scenariosRunner builds the composable-scenario grid block. Beyond the
// usual table it optionally writes the rows as JSON (the BENCH artifact)
// and, with assert on, fails the whole suite unless every row meets its
// acceptance bar — the CI smoke contract for the scenario engine.
func scenariosRunner(jsonPath string, assert bool) func(experiments.Config) (string, error) {
	return func(cfg experiments.Config) (string, error) {
		rows, err := experiments.Scenarios(cfg)
		if err != nil {
			return "", err
		}
		var b strings.Builder
		header(&b, "Scenario grid", "composable traffic/fault/adversary drivers against the cluster runtime: coverage floor, shed, evasion, regret")
		fmt.Fprintln(&b, "scenario\tr\tgovernor\treplan\tworst_cov\tavg_cov\tfloor_held\tbreaches\tshed_frac\tfloor_limited\treplans\tmissed\talerts\tinjected\tevaded\tevasion\tregret_final\tregret_slope\tslo_violations")
		for _, r := range rows {
			fmt.Fprintf(&b, "%s\t%d\t%v\t%v\t%.4f\t%.4f\t%v\t%d\t%.4f\t%d\t%d\t%d\t%d\t%d\t%d\t%.4f\t%.4f\t%.4f\t%d\n",
				r.Scenario, r.Redundancy, r.Governor, r.Replan,
				r.WorstCoverage, r.AvgCoverage, r.FloorHeld, r.Breaches,
				r.ShedFraction, r.FloorLimited, r.Replans, r.MissedReplans,
				r.Alerts, r.Injected, r.Evaded, r.EvasionRate,
				r.RegretFinal, r.RegretSlope, r.SLOViolations)
		}
		if jsonPath != "" {
			data, err := json.MarshalIndent(rows, "", "  ")
			if err != nil {
				return "", fmt.Errorf("scenarios: encoding rows: %w", err)
			}
			if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
				return "", fmt.Errorf("scenarios: %w", err)
			}
			fmt.Fprintf(&b, "# scenarios: %d rows -> %s\n", len(rows), jsonPath)
		}
		if assert {
			if err := assertScenarios(rows); err != nil {
				return "", err
			}
			fmt.Fprintf(&b, "# scenarios: acceptance bar held for all %d rows\n", len(rows))
		}
		return b.String(), nil
	}
}

// assertScenarios is the machine-checked acceptance bar behind
// -scenarios-assert: every cell holds its coverage floor under its SLO
// thresholds, the flood is visible to the data plane, the crafted
// adversary traffic flows and meets an analyst, and FPL's cumulative
// regret grows sublinearly.
func assertScenarios(rows []experiments.ScenarioRow) error {
	var bad []string
	for _, r := range rows {
		if !r.FloorHeld {
			bad = append(bad, fmt.Sprintf("%s: coverage floor breached (%d breaches)", r.Scenario, r.Breaches))
		}
		if r.SLOViolations != 0 {
			bad = append(bad, fmt.Sprintf("%s: %d SLO violations", r.Scenario, r.SLOViolations))
		}
		switch r.Scenario {
		case "synflood":
			if r.Alerts == 0 || r.Injected == 0 {
				bad = append(bad, fmt.Sprintf("synflood: alerts %d injected %d, flood invisible to the data plane", r.Alerts, r.Injected))
			}
		case "adversary":
			if r.Injected == 0 {
				bad = append(bad, "adversary: no crafted sessions reached the runtime")
			}
			if r.RegretSlope >= 1 {
				bad = append(bad, fmt.Sprintf("adversary: cumulative regret slope %.4f, want sublinear (<1)", r.RegretSlope))
			}
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("scenarios: acceptance bar failed:\n  %s", strings.Join(bad, "\n  "))
	}
	return nil
}

func provisioning(cfg experiments.Config) (string, error) {
	rows, err := experiments.Provisioning(cfg)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	header(&b, "Section 5 provisioning", "mean vs 95th-percentile planning under bursty epochs")
	fmt.Fprintln(&b, "strategy\tplanned_max_load\tworst_epoch_load\tmean_epoch_load\tviolation_fraction")
	for _, r := range rows {
		fmt.Fprintf(&b, "%s\t%.4f\t%.4f\t%.4f\t%.2f\n", r.Strategy, r.PlannedMaxLoad, r.WorstEpochLoad, r.MeanEpochLoad, r.ViolationFraction)
	}
	return b.String(), nil
}
