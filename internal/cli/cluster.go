package cli

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"nwdeploy/internal/bro"
	"nwdeploy/internal/chaos"
	"nwdeploy/internal/cluster"
	"nwdeploy/internal/control"
	"nwdeploy/internal/experiments"
	"nwdeploy/internal/ledger"
	"nwdeploy/internal/obs"
	"nwdeploy/internal/obs/obshttp"
	"nwdeploy/internal/telemetry"
	"nwdeploy/internal/trace"
)

// Cluster runs the in-process cluster demo under one of three drivers —
// a fault schedule (the default), -overload's bursts or a -scenario — and
// prints its per-epoch table and verdict. See cmd/cluster for the flags.
func Cluster(_ context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cluster", flag.ContinueOnError)
	topoName := fs.String("topology", "internet2", topologyNames)
	sessions := fs.Int("sessions", 4000, "sessions in the generated workload")
	epochs := fs.Int("epochs", 8, "epochs to run, in every mode")
	redundancy := fs.Int("redundancy", 1, "provisioned coverage level r (2 deploys the path-scoped module subset)")
	seed := fs.Int64("seed", 1, "run seed, in every mode (faults, bursts, scenario drivers); same seed, same report")
	lossProb := fs.Float64("lossprob", 0.2, "per-exchange probability of an injected connection error")
	blackholeProb := fs.Float64("blackholeprob", 0.05, "per-exchange probability of a black-holed request (RPC timeout)")
	nodeFailProb := fs.Float64("nodefailprob", 0.15, "per-(node, epoch) crash probability")
	outageProb := fs.Float64("outageprob", 0.1, "per-epoch controller outage probability")
	maxDown := fs.Int("maxdown", 0, "cap on concurrently crashed nodes (0: uncapped, or r-1 when redundancy > 1)")
	staleGrace := fs.Int("stalegrace", 2, "epochs an agent may serve a stale manifest before going dark (-1 for none)")
	reoptEvery := fs.Int("reoptevery", 3, "re-stamp the plan every k epochs (-1 disables)")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS); output is identical for every value")
	probes := fs.Int("probes", 2000, "coverage probe points per coordination unit")
	metricsPath := fs.String("metrics", "", "write a JSON metrics snapshot to this file on exit")
	tracePath := fs.String("trace", "", "record the flight recorder and write its JSONL dump to this file")
	ledgerDir := fs.String("ledger", "", "record the tamper-evident audit ledger under this directory (chain.jsonl, HEAD, objects/); verify offline with auditcheck")
	ringSize := fs.Int("ringsize", 512, "flight-recorder ring capacity per component (events)")
	sloWorst := fs.Float64("slo-worst-cov", 0, "SLO: minimum per-epoch worst-node coverage (0 disables)")
	sloAvg := fs.Float64("slo-avg-cov", 0, "SLO: minimum per-epoch average coverage (0 disables)")
	sloShed := fs.Float64("slo-max-shed", -1, "SLO: maximum total shed width per epoch (negative disables)")
	sloIters := fs.Int("slo-max-replan-iters", -1, "SLO: maximum replan simplex iterations per epoch (negative disables)")
	sloFetchFail := fs.Int("slo-max-fetch-fail", -1, "SLO: maximum fetch failures per epoch (negative disables)")
	sloDark := fs.Int("slo-max-dark", -1, "SLO: maximum dark agents per epoch (negative disables)")
	sloDeadline := fs.Bool("slo-deadline-miss", false, "SLO: treat a missed replan deadline as a violation")
	deltas := fs.Bool("deltas", false, "agents sync via v2 delta subscriptions (one exchange per sync) instead of the legacy probe+fetch pair")
	encoding := fs.String("encoding", "json", "delta-subscription response encoding: json | bin")
	overload := fs.Bool("overload", false, "run the overload scenario (bursty traffic + governor/replanning) instead of fault injection")
	burstFactor := fs.Float64("burstfactor", 4, "overload: volume multiplier on a bursting pair")
	burstProb := fs.Float64("burstprob", 0.15, "overload: per-(epoch, pair) burst probability")
	baseJitter := fs.Float64("basejitter", 0.1, "overload: multiplicative noise around the mean traffic volume")
	governorOn := fs.Bool("governor", false, "overload, scenario: enable the per-node load governor (shed over budget)")
	replan := fs.Bool("replan", false, "overload, scenario: enable drift-triggered replanning")
	warmReplan := fs.Bool("warmreplan", false, "overload, scenario: warm-start replans from the previous basis")
	replanThreshold := fs.Float64("replanthreshold", 0.2, "overload, scenario: EWMA relative-error drift threshold")
	replanMaxIters := fs.Int("replanmaxiters", 0, "overload, scenario: simplex-iteration deadline per replan (0 = none; a miss falls back to shed state)")
	scenario := fs.String("scenario", "", "run a named composable scenario (diurnal, flashcrowd, synflood, maintenance, adversary, or a + composition) instead of fault injection")
	dataPlane := fs.Bool("dataplane", false, "scenario: run each agent's analysis engine over its traffic share every epoch")
	fleetOn := fs.Bool("fleet", false, "collect fleet telemetry (per-node stats piggybacked on the control wire) and print the per-epoch health rollup")
	pprofAddr := fs.String("pprof", "", "serve /debug/pprof, /debug/vars, /metrics, /trace, /fleet, and /fleet/history on this address while the run executes")
	if code, ok := parseFlags(fs, args, stderr); !ok {
		return code
	}
	fail := failer("cluster", stderr)

	topo, err := topologyByName(*topoName)
	if err != nil {
		return fail(err)
	}
	enc, ok := map[string]control.Encoding{"json": control.EncodingJSON, "bin": control.EncodingBinary}[*encoding]
	if !ok {
		return fail(fmt.Errorf("unknown encoding %q (want json or bin)", *encoding))
	}

	metrics := obs.New()
	var fleet *telemetry.Fleet
	var fleetHist *telemetry.History
	if *fleetOn {
		fleet = telemetry.NewFleet(topo.N(), telemetry.FleetOptions{})
		fleetHist = telemetry.NewHistory(*epochs)
	}
	var tracer *trace.Tracer
	if *tracePath != "" {
		tracer = trace.New(trace.Options{Seed: *seed, RingSize: *ringSize})
	}
	_, stopDebug, err := serveDebug(*pprofAddr, obshttp.Options{
		Registry: metrics, Tracer: tracer, Fleet: fleet, History: fleetHist,
	})
	if err != nil {
		return fail(err)
	}
	defer stopDebug()

	var traceFile *os.File
	var traceBuf bytes.Buffer // retained copy of the dump for the ledger's trace record
	if tracer != nil {
		if traceFile, err = os.Create(*tracePath); err != nil {
			return fail(fmt.Errorf("creating trace file: %w", err))
		}
		defer traceFile.Close() // the success path closes it first and checks
		tracer.SetSink(io.MultiWriter(traceFile, &traceBuf))
	}
	var lw *ledgerWriter
	var led *ledger.Ledger
	if *ledgerDir != "" {
		if lw, err = createLedger(*ledgerDir, *seed); err != nil {
			return fail(err)
		}
		defer lw.chain.Close() // seal closes it first on the success path
		led = lw.led
		// The trace dump header pins the chain head at dump time, binding
		// the flight recording to the ledger prefix it was recorded against.
		tracer.SetChainHead(led.HeadHex)
	}
	watchdog := trace.NewWatchdog(trace.SLO{
		MinWorstCoverage: *sloWorst, MinAvgCoverage: *sloAvg,
		MaxShedWidth: *sloShed, MaxReplanIters: *sloIters,
		MaxFetchFailures: *sloFetchFail, MaxDarkAgents: *sloDark,
		DeadlineMissIsViolation: *sloDeadline,
	})

	cfg := cluster.ScenarioConfig{
		Topo: topo, Sessions: *sessions, Epochs: *epochs,
		Redundancy: *redundancy, Seed: *seed,
		Governor: *governorOn,
		Replan:   *replan, WarmReplan: *warmReplan,
		ReplanThreshold: *replanThreshold, ReplanMaxIters: *replanMaxIters,
		StaleGrace: *staleGrace,
		Workers:    *workers, Probes: *probes, Metrics: metrics,
		Trace: tracer, Watchdog: watchdog, Ledger: led,
		Fleet: fleet, FleetHistory: fleetHist,
	}
	printReport := printChaos
	switch {
	case *scenario != "":
		if cfg.Driver, err = experiments.NewScenario(*scenario, *seed, *epochs); err != nil {
			return fail(err)
		}
		cfg.DataPlane = *dataPlane
		if strings.Contains(*scenario, "synflood") && *redundancy == 1 {
			// The flood targets the egress-scoped SYNFlood module, which
			// the PerPath default set leaves out (its units admit a single
			// copy, so it only deploys at r=1); swap in the flood subset so
			// the injected flood is visible to the data plane.
			cfg.Modules = moduleSubset("http", "signature", "synflood")
		}
		printReport = printScenario
	case *overload:
		// A clean network with the data plane off.
		cfg.Driver = &cluster.BurstDriver{
			Seed: *seed, BurstFactor: *burstFactor, BurstProb: *burstProb, BaseJitter: *baseJitter,
		}
		printReport = func(w io.Writer, rep *cluster.ScenarioReport) { printOverload(w, rep, *warmReplan) }
	default:
		chaosDriver := &cluster.ChaosDriver{
			Seed: *seed, NodeFailProb: *nodeFailProb, ControllerOutageProb: *outageProb,
			MaxDown: *maxDown, ReoptEvery: *reoptEvery,
		}
		cfg.Driver = chaosDriver
		// The governor and replan flags are the other modes'.
		cfg.Governor, cfg.Replan = false, false
		cfg.Modules = bro.StandardModules()[1:]
		if *redundancy > 1 {
			cfg.Modules = moduleSubset("signature", "http")
			if *maxDown == 0 {
				chaosDriver.MaxDown = *redundancy - 1
			}
		}
		cfg.Faults = chaos.NetworkFaults{DropProb: *lossProb, BlackholeProb: *blackholeProb}
		cfg.Agent = control.AgentOptions{DialTimeout: 200 * time.Millisecond, RPCTimeout: 300 * time.Millisecond}
		cfg.Deltas, cfg.Encoding = *deltas, enc
		cfg.DataPlane = true
	}
	rep, err := cluster.RunScenario(cfg)
	if err != nil {
		return fail(err)
	}
	printReport(stdout, rep)

	printFleet(stdout, fleetHist)
	if tracer != nil {
		// Flush the post-mortem if no violation already did, so a -trace
		// run always leaves a dump behind, then report recorder totals
		// (also exported through -metrics as trace.events / trace.dropped).
		tracer.DumpOnce("run_end")
		emitted, dropped := tracer.Stats()
		metrics.Set("trace.events", float64(emitted))
		metrics.Set("trace.dropped", float64(dropped))
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
			if recs := led.Records(); len(recs) > 0 {
				ep = recs[len(recs)-1].Epoch
			}
			b := led.Begin(ledger.RecTrace, ep)
			b.Blob(ledger.ItemTrace, "dump", traceBuf.Bytes(), nil)
			if _, err := b.Commit(); err != nil {
				return fail(fmt.Errorf("committing trace record: %w", err))
			}
		}
		head, err := lw.seal()
		if err != nil {
			return fail(err)
		}
		commits, _, blobBytes := led.Stats()
		fmt.Fprintf(stdout, "# ledger: %d records committed (%d blob bytes), head %s -> %s\n",
			commits, blobBytes, head, *ledgerDir)
	}
	if err := writeMetrics(metrics, *metricsPath); err != nil {
		return fail(err)
	}
	return 0
}

// moduleSubset is the standard module set restricted to names, in the
// standard order.
func moduleSubset(names ...string) []bro.ModuleSpec {
	var mods []bro.ModuleSpec
	for _, m := range bro.StandardModules() {
		if slices.Contains(names, m.Name) {
			mods = append(mods, m)
		}
	}
	return mods
}

func printScenario(w io.Writer, rep *cluster.ScenarioReport) {
	fmt.Fprintf(w, "# scenario %s on %s: %d nodes, %d sessions, redundancy %d, seed %d, governor %v, replan %v, objective %.4f\n",
		rep.Scenario, rep.Topology, rep.Nodes, rep.Sessions, rep.Redundancy,
		rep.Seed, rep.Governor, rep.Replan, rep.Objective)
	fmt.Fprintln(w, "epoch\tdown\tdrained\tctrl_down\tinjected\tcaught\tevaded\tmax_rel_err\treplanned\tover_budget\tfloor_limited\tshed_width\tsynced\tstale\tdark\talerts\tworst_cov\tavg_cov\texpected_worst\tbreach\tslo")
	for _, e := range rep.Epochs {
		fmt.Fprintf(w, "%d\t%s\t%s\t%v\t%d\t%d\t%d\t%.4f\t%v\t%d\t%d\t%.4f\t%d\t%d\t%d\t%d\t%.4f\t%.4f\t%.4f\t%v\t%s\n",
			e.Epoch, nodeList(e.DownNodes), nodeList(e.Drained), e.CtrlDown,
			e.Injected, e.InjectedCaught, e.InjectedEvaded,
			e.MaxRelErr, e.Replanned, e.OverBudget, e.Unsatisfied, e.ShedWidth,
			e.SyncedAgents, e.StaleAgents, e.DarkAgents, e.Alerts,
			e.WorstCoverage, e.AvgCoverage, e.ExpectedWorst, e.Breach,
			sloCell(e.SLOViolations))
	}
	fmt.Fprintf(w, "# summary: worst coverage %.4f, avg %.4f, shed fraction %.4f, injected %d (evaded %d, rate %.4f), replans %d (missed %d), alerts %d\n",
		rep.WorstCoverage, rep.AvgCoverage, rep.ShedFraction(),
		rep.TotalInjected, rep.TotalEvaded, rep.EvasionRate(),
		rep.Replans, rep.MissedReplans, rep.TotalAlerts)
	if rep.FloorHeld {
		fmt.Fprintf(w, "# verdict: published coverage floor held on every epoch\n")
	} else {
		fmt.Fprintf(w, "# verdict: coverage floor BREACHED on %d epochs (post-mortem in the trace dump)\n", rep.Breaches)
	}
}

// printOverload renders an overload run; warm is the -warmreplan setting,
// which the report does not echo.
func printOverload(w io.Writer, rep *cluster.ScenarioReport, warm bool) {
	fmt.Fprintf(w, "# %s: %d nodes, %d sessions, redundancy %d, seed %d, governor %v, replan %v (warm %v), objective %.4f\n",
		rep.Topology, rep.Nodes, rep.Sessions, rep.Redundancy, rep.Seed,
		rep.Governor, rep.Replan, warm, rep.Objective)
	fmt.Fprintln(w, "epoch\tmax_rel_err\tdrifted\treplanned\twarm\treplan_iters\tmissed\tover_budget\tfloor_limited\tshed_width\tworst_cov\tavg_cov\tshed_floor_worst\tsynced\tslo")
	for _, e := range rep.Epochs {
		// With nothing down the expectation is the governors' shed floor;
		// ungoverned, nothing sheds.
		shedFloor := 1.0
		if rep.Governor {
			shedFloor = e.ExpectedWorst
		}
		fmt.Fprintf(w, "%d\t%.4f\t%v\t%v\t%v\t%d\t%v\t%d\t%d\t%.4f\t%.4f\t%.4f\t%.4f\t%d\t%s\n",
			e.Epoch, e.MaxRelErr, e.Drifted, e.Replanned, e.ReplanWarm,
			e.ReplanIters, e.ReplanMissed, e.OverBudget, e.Unsatisfied, e.ShedWidth,
			e.WorstCoverage, e.AvgCoverage, shedFloor, e.SyncedAgents,
			sloCell(e.SLOViolations))
	}
	fmt.Fprintf(w, "# summary: worst coverage %.4f, avg %.4f, max over-budget nodes %d, replans %d (missed %d, %d iters)\n",
		rep.WorstCoverage, rep.AvgCoverage, rep.MaxOverBudget,
		rep.Replans, rep.MissedReplans, rep.TotalReplanIters)
}

func printChaos(w io.Writer, rep *cluster.ScenarioReport) {
	fmt.Fprintf(w, "# %s: %d nodes, %d sessions, redundancy %d, seed %d, objective %.4f\n",
		rep.Topology, rep.Nodes, rep.Sessions, rep.Redundancy, rep.Seed, rep.Objective)
	fmt.Fprintln(w, "epoch\tctrl_epoch\tctrl_down\tdown_nodes\tsynced\tstale\tdark\tfetch_att\tfetch_fail\ttimeouts\talerts\tworst_cov\tavg_cov\tpredicted_worst\tslo")
	holds := true
	for _, e := range rep.Epochs {
		fmt.Fprintf(w, "%d\t%d\t%v\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%.4f\t%.4f\t%.4f\t%s\n",
			e.Epoch, e.ControllerEpoch, e.CtrlDown, nodeList(e.DownNodes),
			e.SyncedAgents, e.StaleAgents, e.DarkAgents,
			e.FetchAttempts, e.FetchFailures, e.FetchTimeouts, e.Alerts,
			e.WorstCoverage, e.AvgCoverage, e.ExpectedWorst,
			sloCell(e.SLOViolations))
		if len(e.DownNodes) <= rep.Redundancy-1 && e.DarkAgents == 0 && e.WorstCoverage < 1 {
			holds = false
		}
	}
	if holds {
		fmt.Fprintf(w, "# verdict: coverage guarantee held (failures within r-1 never cost coverage)\n")
	} else {
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
