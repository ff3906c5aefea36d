package cli

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"nwdeploy/internal/cluster"
	"nwdeploy/internal/control"
	"nwdeploy/internal/experiments"
	"nwdeploy/internal/ledger"
	"nwdeploy/internal/obs"
	"nwdeploy/internal/obs/obshttp"
	"nwdeploy/internal/telemetry"
	"nwdeploy/internal/trace"
)

// Cluster runs the in-process cluster demo under one -scenario spec —
// chaos, the default, or any catalog composition — and prints its
// per-epoch table and verdicts. See cmd/cluster for the flags.
func Cluster(_ context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cluster", flag.ContinueOnError)
	resolve := clusterFlags(fs)
	metricsPath := fs.String("metrics", "", "write a JSON metrics snapshot to this file on exit")
	tracePath := fs.String("trace", "", "record the flight recorder and write its JSONL dump to this file")
	ledgerDir := fs.String("ledger", "", "record the tamper-evident audit ledger under this directory (chain.jsonl, HEAD, objects/); verify offline with auditcheck")
	ringSize := fs.Int("ringsize", 512, "flight-recorder ring capacity per component (events)")
	var slo trace.SLO
	fs.Float64Var(&slo.MinWorstCoverage, "slo-worst-cov", 0, "SLO: minimum per-epoch worst-node coverage (0 disables)")
	fs.Float64Var(&slo.MinAvgCoverage, "slo-avg-cov", 0, "SLO: minimum per-epoch average coverage (0 disables)")
	fs.Float64Var(&slo.MaxShedWidth, "slo-max-shed", -1, "SLO: maximum total shed width per epoch (negative disables)")
	fs.IntVar(&slo.MaxReplanIters, "slo-max-replan-iters", -1, "SLO: maximum replan simplex iterations per epoch (negative disables)")
	fs.IntVar(&slo.MaxFetchFailures, "slo-max-fetch-fail", -1, "SLO: maximum fetch failures per epoch (negative disables)")
	fs.IntVar(&slo.MaxDarkAgents, "slo-max-dark", -1, "SLO: maximum dark agents per epoch (negative disables)")
	fs.BoolVar(&slo.DeadlineMissIsViolation, "slo-deadline-miss", false, "SLO: treat a missed replan deadline as a violation")
	fleetOn := fs.Bool("fleet", false, "collect fleet telemetry (per-node stats piggybacked on the control wire) and print the per-epoch health rollup")
	pprofAddr := fs.String("pprof", "", "serve /debug/pprof, /debug/vars, /metrics, /trace, /fleet, and /fleet/history on this address while the run executes")
	if code, ok := parseFlags(fs, args, stderr); !ok {
		return code
	}
	cfg, err := resolve()
	if err != nil {
		fmt.Fprintf(stderr, "cluster: %v\n", err)
		return 2
	}
	fail := failer("cluster", stderr)

	cfg.Metrics = obs.New()
	if *fleetOn {
		cfg.Fleet = telemetry.NewFleet(cfg.Topo.N(), telemetry.FleetOptions{})
		cfg.FleetHistory = telemetry.NewHistory(cfg.Epochs)
	}
	if *tracePath != "" {
		cfg.Trace = trace.New(trace.Options{Seed: cfg.Seed, RingSize: *ringSize})
	}
	_, stopDebug, err := serveDebug(*pprofAddr, obshttp.Options{
		Registry: cfg.Metrics, Tracer: cfg.Trace, Fleet: cfg.Fleet, History: cfg.FleetHistory,
	})
	if err != nil {
		return fail(err)
	}
	defer stopDebug()

	var traceFile *os.File
	var traceBuf bytes.Buffer // retained copy of the dump for the ledger's trace record
	if cfg.Trace != nil {
		if traceFile, err = os.Create(*tracePath); err != nil {
			return fail(fmt.Errorf("creating trace file: %w", err))
		}
		defer traceFile.Close() // the success path closes it first and checks
		cfg.Trace.SetSink(io.MultiWriter(traceFile, &traceBuf))
	}
	var lw *ledgerWriter
	if *ledgerDir != "" {
		if lw, err = createLedger(*ledgerDir, cfg.Seed); err != nil {
			return fail(err)
		}
		defer lw.chain.Close() // seal closes it first on the success path
		cfg.Ledger = lw.led
		// The trace dump header pins the chain head at dump time, binding
		// the flight recording to the ledger prefix it was recorded against.
		cfg.Trace.SetChainHead(cfg.Ledger.HeadHex)
	}
	cfg.Watchdog = trace.NewWatchdog(slo)

	rep, err := cluster.RunScenario(cfg)
	if err != nil {
		return fail(err)
	}
	printReport(stdout, rep, cfg.WarmReplan, *tracePath)
	printFleet(stdout, cfg.FleetHistory)
	if cfg.Trace != nil {
		// Flush the post-mortem if no violation already did, so a -trace
		// run always leaves a dump behind, then report recorder totals
		// (also exported through -metrics as trace.events / trace.dropped).
		cfg.Trace.DumpOnce("run_end")
		emitted, dropped := cfg.Trace.Stats()
		cfg.Metrics.Set("trace.events", float64(emitted))
		cfg.Metrics.Set("trace.dropped", float64(dropped))
		if err := traceFile.Close(); err != nil {
			return fail(fmt.Errorf("closing trace file: %w", err))
		}
		fmt.Fprintf(stdout, "# trace: %d events recorded (%d evicted from rings) -> %s\n",
			emitted, dropped, *tracePath)
	}
	if lw != nil {
		// After the trace: commit the flight-recorder dump (when one was
		// recorded) as the chain's final trace record, then pin the head.
		if traceBuf.Len() > 0 {
			ep := uint64(0)
			if recs := cfg.Ledger.Records(); len(recs) > 0 {
				ep = recs[len(recs)-1].Epoch
			}
			b := cfg.Ledger.Begin(ledger.RecTrace, ep)
			b.Blob(ledger.ItemTrace, "dump", traceBuf.Bytes(), nil)
			if _, err := b.Commit(); err != nil {
				return fail(fmt.Errorf("committing trace record: %w", err))
			}
		}
		head, err := lw.seal()
		if err != nil {
			return fail(err)
		}
		commits, _, blobBytes := cfg.Ledger.Stats()
		fmt.Fprintf(stdout, "# ledger: %d records committed (%d blob bytes), head %s -> %s\n",
			commits, blobBytes, head, *ledgerDir)
	}
	if err := writeMetrics(cfg.Metrics, *metricsPath); err != nil {
		return fail(err)
	}
	return 0
}

// clusterFlags declares on fs the flags that shape the run and returns its
// resolver: once fs is parsed, the config experiments.NewScenario builds
// from them, or an error naming a flag out of range or the run ignores.
func clusterFlags(fs *flag.FlagSet) func() (cluster.ScenarioConfig, error) {
	var cfg cluster.ScenarioConfig
	var crashes cluster.ChaosDriver
	var bursts cluster.BurstDriver
	spec := fs.String("scenario", "chaos", "the run's driver: chaos, bursts, diurnal, flashcrowd, synflood, maintenance, adversary, or a + composition such as diurnal+chaos")
	topoName := fs.String("topology", "internet2", topologyNames)
	fs.IntVar(&cfg.Sessions, "sessions", 4000, "sessions in the generated workload (>= 1)")
	fs.IntVar(&cfg.Epochs, "epochs", 8, "epochs to run (>= 1)")
	fs.IntVar(&cfg.Redundancy, "redundancy", 1, "provisioned coverage level r (>= 1)")
	fs.Int64Var(&cfg.Seed, "seed", 1, "run seed (faults, bursts, scenario drivers); same seed, same report")
	fs.Float64Var(&cfg.Faults.DropProb, "lossprob", 0.2, "per-exchange probability of an injected connection error, in [0, 1] (without chaos: 0 unless given)")
	fs.Float64Var(&cfg.Faults.BlackholeProb, "blackholeprob", 0.05, "per-exchange probability of a black-holed request (RPC timeout), in [0, 1] (without chaos: 0 unless given)")
	fs.Float64Var(&crashes.NodeFailProb, "nodefailprob", 0.15, "chaos: per-(node, epoch) crash probability, in [0, 1]")
	fs.Float64Var(&crashes.ControllerOutageProb, "outageprob", 0.1, "chaos: per-epoch controller outage probability, in [0, 1]")
	fs.IntVar(&crashes.MaxDown, "maxdown", 0, "chaos: cap on concurrently crashed nodes (0: uncapped, or r-1 when redundancy > 1)")
	fs.IntVar(&crashes.ReoptEvery, "reoptevery", 3, "chaos: re-stamp the plan every k epochs (-1 disables)")
	fs.Float64Var(&bursts.BurstFactor, "burstfactor", 4, "bursts: volume multiplier on a bursting pair")
	fs.Float64Var(&bursts.BurstProb, "burstprob", 0.15, "bursts: per-(epoch, pair) burst probability, in [0, 1]")
	fs.Float64Var(&bursts.BaseJitter, "basejitter", 0.1, "bursts: multiplicative noise around the mean traffic volume")
	fs.IntVar(&cfg.StaleGrace, "stalegrace", 2, "epochs an agent may serve a stale manifest before going dark (-1 for none)")
	fs.IntVar(&cfg.Workers, "workers", 0, "worker pool size (0 = GOMAXPROCS); output is identical for every value")
	fs.IntVar(&cfg.Probes, "probes", 2000, "coverage probe points per coordination unit (>= 1)")
	fs.BoolVar(&cfg.Deltas, "deltas", false, "agents sync via v2 delta subscriptions (one exchange per sync) instead of the legacy probe+fetch pair")
	encoding := fs.String("encoding", "json", "with -deltas: the delta-subscription response encoding, json | bin")
	fs.BoolVar(&cfg.Governor, "governor", false, "enable the per-node load governor (shed over budget)")
	fs.BoolVar(&cfg.Replan, "replan", false, "enable drift-triggered replanning")
	fs.BoolVar(&cfg.WarmReplan, "warmreplan", false, "with -replan: warm-start replans from the previous basis")
	fs.Float64Var(&cfg.ReplanThreshold, "replanthreshold", 0.2, "with -replan: EWMA relative-error drift threshold")
	fs.IntVar(&cfg.ReplanMaxIters, "replanmaxiters", 0, "with -replan: simplex-iteration deadline per replan (0 = none; a miss falls back to shed state)")
	fs.BoolVar(&cfg.DataPlane, "dataplane", false, "run each agent's analysis engine over its traffic share every epoch (chaos needs it on)")

	return func() (cluster.ScenarioConfig, error) {
		cfg := cfg // the flags' values stay as parsed
		set := map[string]bool{}
		fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
		prob := func(p float64) bool { return p >= 0 && p <= 1 }
		// Substrings suffice: NewScenario rejects other names holding them.
		withChaos, withBursts := strings.Contains(*spec, "chaos"), strings.Contains(*spec, "bursts")
		for _, c := range []struct {
			name string
			ok   bool
			want string
		}{
			{"sessions", cfg.Sessions >= 1, "want >= 1"},
			{"epochs", cfg.Epochs >= 1, "want >= 1"},
			{"redundancy", cfg.Redundancy >= 1, "want >= 1"},
			{"probes", cfg.Probes >= 1, "want >= 1"},
			{"lossprob", prob(cfg.Faults.DropProb), "want a probability in [0, 1]"},
			{"blackholeprob", prob(cfg.Faults.BlackholeProb), "want a probability in [0, 1]"},
			{"nodefailprob", prob(crashes.NodeFailProb), "want a probability in [0, 1]"},
			{"outageprob", prob(crashes.ControllerOutageProb), "want a probability in [0, 1]"},
			{"burstprob", prob(bursts.BurstProb), "want a probability in [0, 1]"},
			{"maxdown", crashes.MaxDown >= 0, "want >= 0"},
			{"encoding", *encoding == "json" || *encoding == "bin", "want json or bin"},
			{"nodefailprob", withChaos || !set["nodefailprob"], "applies only with chaos in -scenario"},
			{"outageprob", withChaos || !set["outageprob"], "applies only with chaos in -scenario"},
			{"maxdown", withChaos || !set["maxdown"], "applies only with chaos in -scenario"},
			{"reoptevery", withChaos || !set["reoptevery"], "applies only with chaos in -scenario"},
			{"burstfactor", withBursts || !set["burstfactor"], "applies only with bursts in -scenario"},
			{"burstprob", withBursts || !set["burstprob"], "applies only with bursts in -scenario"},
			{"basejitter", withBursts || !set["basejitter"], "applies only with bursts in -scenario"},
			{"warmreplan", cfg.Replan || !set["warmreplan"], "applies only with -replan"},
			{"replanthreshold", cfg.Replan || !set["replanthreshold"], "applies only with -replan"},
			{"replanmaxiters", cfg.Replan || !set["replanmaxiters"], "applies only with -replan"},
			{"encoding", cfg.Deltas || !set["encoding"], "applies only with -deltas"},
		} {
			if !c.ok {
				return cfg, fmt.Errorf("-%s %s: %s", c.name, fs.Lookup(c.name).Value, c.want)
			}
		}
		var err error
		if cfg.Topo, err = topologyByName(*topoName); err != nil {
			return cfg, fmt.Errorf("-topology: %w", err)
		}
		if *encoding == "bin" {
			cfg.Encoding = control.EncodingBinary
		}
		// The fault flags default to chaos's mix; any other run is on a
		// clean network unless they are given.
		if !withChaos && !set["lossprob"] {
			cfg.Faults.DropProb = 0
		}
		if !withChaos && !set["blackholeprob"] {
			cfg.Faults.BlackholeProb = 0
		}
		dataPlane := cfg.DataPlane
		if err := experiments.NewScenario(&cfg, *spec, crashes, bursts); err != nil {
			return cfg, fmt.Errorf("-scenario: %w", err)
		}
		if set["dataplane"] && cfg.DataPlane != dataPlane {
			return cfg, fmt.Errorf("-dataplane=%v: scenario %s needs the data plane", dataPlane, *spec)
		}
		return cfg, nil
	}
}

// printReport renders a run: a header, one row per epoch, a summary, the
// floor verdict and, for a run with chaos, the r-1 guarantee verdict. warm
// is the -warmreplan setting, which the report does not echo; dump is the
// -trace path, which a breach verdict names, or "" when no dump is written.
func printReport(w io.Writer, rep *cluster.ScenarioReport, warm bool, dump string) {
	fmt.Fprintf(w, "# scenario %s on %s: %d nodes, %d sessions, redundancy %d, seed %d, governor %v, replan %v (warm %v), objective %.4f\n",
		rep.Scenario, rep.Topology, rep.Nodes, rep.Sessions, rep.Redundancy,
		rep.Seed, rep.Governor, rep.Replan, warm, rep.Objective)
	fmt.Fprintln(w, "epoch\tctrl_epoch\tctrl_down\tdown\tdrained\tinjected\tcaught\tevaded\tmax_rel_err\tdrifted\treplanned\twarm\treplan_iters\tmissed\tover_budget\tfloor_limited\tshed_width\tsynced\tstale\tdark\tfetch_att\tfetch_fail\ttimeouts\talerts\tworst_cov\tavg_cov\texpected_worst\tbreach\tslo")
	for _, e := range rep.Epochs {
		fmt.Fprintf(w, "%d\t%d\t%v\t%s\t%s\t%d\t%d\t%d\t%.4f\t%v\t%v\t%v\t%d\t%v\t%d\t%d\t%.4f\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%.4f\t%.4f\t%.4f\t%v\t%s\n",
			e.Epoch, e.ControllerEpoch, e.CtrlDown, nodeList(e.DownNodes), nodeList(e.Drained),
			e.Injected, e.InjectedCaught, e.InjectedEvaded, e.MaxRelErr, e.Drifted, e.Replanned,
			e.ReplanWarm, e.ReplanIters, e.ReplanMissed, e.OverBudget, e.Unsatisfied, e.ShedWidth,
			e.SyncedAgents, e.StaleAgents, e.DarkAgents, e.FetchAttempts, e.FetchFailures, e.FetchTimeouts,
			e.Alerts, e.WorstCoverage, e.AvgCoverage, e.ExpectedWorst, e.Breach, sloCell(e.SLOViolations))
	}
	fmt.Fprintf(w, "# summary: worst coverage %.4f, avg %.4f, shed fraction %.4f, max over-budget nodes %d, injected %d (evaded %d, rate %.4f), replans %d (missed %d, %d iters), alerts %d\n",
		rep.WorstCoverage, rep.AvgCoverage, rep.ShedFraction(), rep.MaxOverBudget,
		rep.TotalInjected, rep.TotalEvaded, rep.EvasionRate(),
		rep.Replans, rep.MissedReplans, rep.TotalReplanIters, rep.TotalAlerts)
	if rep.FloorHeld {
		fmt.Fprintf(w, "# verdict: published coverage floor held on every epoch\n")
	} else if dump != "" {
		fmt.Fprintf(w, "# verdict: coverage floor BREACHED on %d epochs (post-mortem in the trace dump %s)\n", rep.Breaches, dump)
	} else {
		fmt.Fprintf(w, "# verdict: coverage floor BREACHED on %d epochs\n", rep.Breaches)
	}
	switch {
	case !strings.Contains(rep.Scenario, "chaos"):
	case rep.GuaranteeHeld():
		fmt.Fprintf(w, "# verdict: coverage guarantee held (failures within r-1 never cost coverage)\n")
	default:
		fmt.Fprintf(w, "# verdict: coverage guarantee VIOLATED on at least one epoch\n")
	}
}

// printFleet renders the controller's per-epoch health rollup — its wire
// truth, which deliberately lags node-local state by the delivery epoch
// (see internal/cluster/fleet.go). A nil history prints nothing.
func printFleet(w io.Writer, hist *telemetry.History) {
	if hist == nil {
		return
	}
	fmt.Fprintln(w, "# fleet health (controller wire truth)")
	fmt.Fprintln(w, "epoch\tctrl_epoch\thealthy\tstale\tshedding\tdark\tdark_nodes")
	for _, s := range hist.Snapshots() {
		var darkNodes []int
		for _, v := range s.Nodes {
			if v.Health == telemetry.Dark {
				darkNodes = append(darkNodes, v.Node)
			}
		}
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%d\t%s\n",
			s.RunEpoch, s.CtrlEpoch, s.Healthy, s.Stale, s.Shedding, s.Dark,
			nodeList(darkNodes))
	}
}

// sloCell renders an epoch's watchdog verdicts for the table: "ok" when
// clean, else the breached rules joined with commas.
func sloCell(violations []string) string {
	if len(violations) == 0 {
		return "ok"
	}
	return strings.Join(violations, ",")
}

// nodeList renders a node set for the table: "-" when empty.
func nodeList(nodes []int) string {
	if len(nodes) == 0 {
		return "-"
	}
	parts := make([]string, len(nodes))
	for i, j := range nodes {
		parts[i] = fmt.Sprint(j)
	}
	return strings.Join(parts, ",")
}
