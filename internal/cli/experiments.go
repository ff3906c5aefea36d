package cli

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
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
	type b = strings.Builder
	return []runner{
		{"fig5", table("Figure 5", "per-module CPU and memory overhead of the coordination checks (policy-stage vs event-stage)",
			"module\tcpu_policy\tcpu_event\tmem_policy\tmem_event",
			func(cfg experiments.Config) ([]experiments.Fig5Row, error) { return experiments.Fig5(cfg), nil },
			func(w *b, r experiments.Fig5Row) {
				fmt.Fprintf(w, "%s\t%.4f\t%.4f\t%.4f\t%.4f\n", r.Module, r.PolicyCPU, r.EventCPU, r.PolicyMem, r.EventMem)
			})},
		{"fig6", table("Figure 6", "max per-node footprint vs number of NIDS modules (Internet2)",
			"modules\tedge_mem\tcoord_mem\tedge_cpu\tcoord_cpu", experiments.Fig6,
			func(w *b, r experiments.ScalingRow) {
				fmt.Fprintf(w, "%d\t%.4g\t%.4g\t%.4g\t%.4g\n", r.Modules, r.EdgeMem, r.CoordMem, r.EdgeCPU, r.CoordCPU)
			})},
		{"fig7", table("Figure 7", "max per-node footprint vs total traffic volume (21 modules)",
			"sessions\tedge_mem\tcoord_mem\tedge_cpu\tcoord_cpu", experiments.Fig7,
			func(w *b, r experiments.ScalingRow) {
				fmt.Fprintf(w, "%d\t%.4g\t%.4g\t%.4g\t%.4g\n", r.Sessions, r.EdgeMem, r.CoordMem, r.EdgeCPU, r.CoordCPU)
			})},
		{"fig8", table("Figure 8", "per-node footprint, edge vs coordinated (100k sessions, 21 modules)",
			"node\tcity\tedge_mem\tcoord_mem\tedge_cpu\tcoord_cpu", experiments.Fig8,
			func(w *b, r experiments.Fig8Row) {
				fmt.Fprintf(w, "%d\t%s\t%.4g\t%.4g\t%.4g\t%.4g\n", r.Node, r.City, r.EdgeMem, r.CoordMem, r.EdgeCPU, r.CoordCPU)
			})},
		{"opttime", table("Optimization time", "LP/MILP-approx solve times on a 50-node topology (paper: 0.42s NIDS with CPLEX, ~220s NIPS)",
			"problem\tnodes\tseconds\tpaper_seconds", optTimes,
			func(w *b, r experiments.OptTime) {
				fmt.Fprintf(w, "%s\t%d\t%.3f\t%.2f\n", r.Problem, r.Nodes, r.Seconds, r.PaperSeconds)
			})},
		{"fig10", table("Figure 10", "rounding algorithms as a fraction of the LP upper bound vs rule capacity constraint",
			"topology\tcap_frac\tvariant\tmean\tmin\tmax", experiments.Fig10,
			func(w *b, r experiments.Fig10Row) {
				fmt.Fprintf(w, "%s\t%.2f\t%s\t%.4f\t%.4f\t%.4f\n", r.Topology, r.CapFrac, r.Variant, r.Mean, r.Min, r.Max)
			})},
		{"fig11", table("Figure 11", "normalized regret of the FPL online adaptation over epochs",
			"run\tepoch\tnormalized_regret", experiments.Fig11,
			func(w *b, run experiments.Fig11Row) {
				for _, pt := range run.Series {
					fmt.Fprintf(w, "%d\t%d\t%.4f\n", run.Run, pt.Epoch, pt.Normalized)
				}
			})},
		{"fig10robustness", table("Figure 10 robustness", "rounding variants under other match-rate distributions (paper: 'results hold', shown for brevity)",
			"distribution\tvariant\tmean_frac_of_optlp", experiments.Fig10Robustness,
			func(w *b, r experiments.Fig10RobustnessRow) {
				fmt.Fprintf(w, "%s\t%s\t%.4f\n", r.Dist, r.Variant, r.Mean)
			})},
		{"redundancy", table("Section 2.5", "minimized max load vs redundancy level r",
			"r\tmax_load", experiments.Redundancy,
			func(w *b, r experiments.RedundancyRow) { fmt.Fprintf(w, "%d\t%.4f\n", r.R, r.MaxLoad) })},
		{"ablations", table("Ablations", "design-choice comparisons (LP vs greedy, fine-grained coordination, keyed hash)",
			"name\tmetric\tbaseline\tvariant", experiments.Ablations,
			func(w *b, r experiments.AblationRow) {
				fmt.Fprintf(w, "%s\t%s\t%.4g\t%.4g\n", r.Name, r.Metric, r.Baseline, r.Variant)
			})},
		{"adversaries", table("Adversaries", "FPL online deployer vs oblivious, drifting, and adaptive adversaries (Section 3.5 future work)",
			"adversary\tfinal_normalized_regret\tfpl_total_objective", experiments.Adversaries,
			func(w *b, r experiments.AdversaryRow) {
				fmt.Fprintf(w, "%s\t%.4f\t%.5g\n", r.Adversary, r.FinalRegret, r.FPLTotal)
			})},
		{"provisioning", table("Section 5 provisioning", "mean vs 95th-percentile planning under bursty epochs",
			"strategy\tplanned_max_load\tworst_epoch_load\tmean_epoch_load\tviolation_fraction", experiments.Provisioning,
			func(w *b, r experiments.ProvisioningRow) {
				fmt.Fprintf(w, "%s\t%.4f\t%.4f\t%.4f\t%.2f\n", r.Strategy, r.PlannedMaxLoad, r.WorstEpochLoad, r.MeanEpochLoad, r.ViolationFraction)
			})},
		{"scenarios", scenariosRunner(scenariosJSON, scenariosAssert)},
	}
}

// table is the runner of one block: the figure header, the column line,
// then each row's lines as line writes them.
func table[R any](figure, detail, cols string, rows func(experiments.Config) ([]R, error), line func(*strings.Builder, R)) func(experiments.Config) (string, error) {
	return func(cfg experiments.Config) (string, error) {
		rs, err := rows(cfg)
		if err != nil {
			return "", err
		}
		var b strings.Builder
		fmt.Fprintf(&b, "\n# %s — %s\n%s\n", figure, detail, cols)
		for _, r := range rs {
			line(&b, r)
		}
		return b.String(), nil
	}
}

// optTimes times the NIDS LP and the NIPS MILP approximation.
func optTimes(cfg experiments.Config) ([]experiments.OptTime, error) {
	nids, err := experiments.NIDSOptTime(cfg)
	if err != nil {
		return nil, fmt.Errorf("nids: %w", err)
	}
	np, err := experiments.NIPSOptTime(cfg)
	if err != nil {
		return nil, fmt.Errorf("nips: %w", err)
	}
	return []experiments.OptTime{nids, np}, nil
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

// Experiments regenerates the paper's tables and figures as TSV blocks on
// stdout. See cmd/experiments for the flags.
func Experiments(_ context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "use reduced workload sizes")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS, 1 = serial); output is identical for every value")
	only := fs.String("only", "", "comma-separated subset of experiments to run")
	metricsPath := fs.String("metrics", "", "write a JSON metrics snapshot to this file on exit")
	tracePath := fs.String("trace", "", "record the flight recorder of every cluster run (the scenarios block) and write its JSONL dump to this file (forces serial experiment blocks)")
	pprofAddr := fs.String("pprof", "", "serve /debug/pprof, /debug/vars, /metrics, and /trace on this address")
	scenariosJSON := fs.String("scenarios-json", "", "write the scenario-grid rows as JSON to this file (implies running the scenarios block)")
	scenariosAssert := fs.Bool("scenarios-assert", false, "fail unless the scenario grid meets its acceptance bar (floor held, no SLO violations, flood visible, sublinear regret, r-1 guarantee, governor and warm-replan gains)")
	if code, ok := parseFlags(fs, args, stderr); !ok {
		return code
	}
	fail := failer("experiments", stderr)
	selected, err := selectRunners(runners(*scenariosJSON, *scenariosAssert), *only, *scenariosJSON != "")
	if err != nil {
		return fail(err)
	}

	metrics := obs.New()
	var tracer *trace.Tracer
	if *tracePath != "" {
		tracer = trace.New(trace.Options{Seed: 29})
	}
	_, stopDebug, err := serveDebug(*pprofAddr, obshttp.Options{Registry: metrics, Tracer: tracer})
	if err != nil {
		return fail(err)
	}
	defer stopDebug()

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
		return fail(err)
	}
	for _, out := range outputs {
		io.WriteString(stdout, out)
	}
	if tracer != nil {
		var dump bytes.Buffer
		if err := tracer.Dump(&dump, "run_end"); err != nil {
			return fail(fmt.Errorf("writing trace: %w", err))
		}
		if err := os.WriteFile(*tracePath, dump.Bytes(), 0o644); err != nil {
			return fail(fmt.Errorf("writing trace: %w", err))
		}
	}
	if err := writeMetrics(metrics, *metricsPath); err != nil {
		return fail(err)
	}
	return 0
}

// scenariosRunner builds the composable-scenario grid block. Beyond the
// usual table it optionally writes the rows as JSON (the BENCH artifact)
// and, with assert on, fails the whole suite unless the rows meet
// experiments.AssertScenarios — the CI smoke contract for the scenario
// engine.
func scenariosRunner(jsonPath string, assert bool) func(experiments.Config) (string, error) {
	return func(cfg experiments.Config) (string, error) {
		rows, err := experiments.Scenarios(cfg)
		if err != nil {
			return "", err
		}
		var b strings.Builder
		fmt.Fprintln(&b, "\n# Scenario grid — composable traffic, fault, burst and adversary drivers against the cluster runtime: coverage floor, r-1 guarantee, shed, replan cost, evasion, regret")
		fmt.Fprintln(&b, "scenario\tr\tgovernor\treplan\twarm\tworst_cov\tavg_cov\texpected_worst\tfloor_held\tguarantee_held\tbreaches\tdown\tdark\tfetch_att\tfetch_fail\tshed_frac\tshed_width_max\tover_budget\tfloor_limited\treplans\tmissed\treplan_iters\talerts\tinjected\tevaded\tevasion\tregret_final\tregret_slope\tslo_violations")
		for _, r := range rows {
			fmt.Fprintf(&b, "%s\t%d\t%v\t%v\t%v\t%.4f\t%.4f\t%.4f\t%v\t%v\t%d\t%d\t%d\t%d\t%d\t%.4f\t%.4f\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%.4f\t%.4f\t%.4f\t%d\n",
				r.Scenario, r.Redundancy, r.Governor, r.Replan, r.WarmReplan,
				r.WorstCoverage, r.AvgCoverage, r.ExpectedWorst, r.FloorHeld, r.GuaranteeHeld, r.Breaches,
				r.DownNodeEpochs, r.DarkAgentEpochs, r.FetchAttempts, r.FetchFailures,
				r.ShedFraction, r.ShedWidthMax, r.OverBudget, r.FloorLimited,
				r.Replans, r.MissedReplans, r.ReplanIters,
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
			if err := experiments.AssertScenarios(rows); err != nil {
				return "", err
			}
			fmt.Fprintf(&b, "# scenarios: acceptance bar held for all %d rows\n", len(rows))
		}
		return b.String(), nil
	}
}
