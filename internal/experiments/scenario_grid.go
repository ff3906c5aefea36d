package experiments

import (
	"fmt"
	"strings"
	"time"

	"nwdeploy/internal/chaos"
	"nwdeploy/internal/cluster"
	"nwdeploy/internal/nips"
	"nwdeploy/internal/online"
	"nwdeploy/internal/topology"
	"nwdeploy/internal/trace"
)

// ScenarioRow is one cell of the scenario grid: a scenario run against the
// live cluster runtime, summarized across epochs, plus — for the adversary
// cell — the FPL regret measurements from the online adaptation harness.
type ScenarioRow struct {
	Scenario   string
	Epochs     int
	Redundancy int
	Governor   bool
	Replan     bool
	WarmReplan bool
	DataPlane  bool
	// Coverage and floor outcome: FloorHeld means no epoch's wire-audited
	// coverage fell below what the published manifests (minus down nodes
	// and published shed) promised; every breach left a flight-recorder
	// post-mortem behind. ExpectedWorst is the lowest of those promises;
	// GuaranteeHeld is the report's Section 2.5 verdict.
	WorstCoverage float64
	AvgCoverage   float64
	ExpectedWorst float64
	FloorHeld     bool
	GuaranteeHeld bool
	Breaches      int
	// Fault outcome, summed over epochs: crashed nodes, dark agents, and
	// the agents' fetch attempts and failures.
	DownNodeEpochs  int
	DarkAgentEpochs int
	FetchAttempts   int
	FetchFailures   int
	// Governor outcome: ShedFraction is the run-average fraction of
	// assigned hash width shed and ShedWidthMax the widest epoch's shed;
	// OverBudget counts node-epochs above the tolerated CPU budget and
	// FloorLimited the node-epochs pinned at the unsheddable r=1 floor.
	ShedFraction float64
	ShedWidthMax float64
	OverBudget   int
	FloorLimited int
	// Drift/replan outcome: iterations are the deterministic replan-latency
	// unit, so warm and cold cells quantify what warm-starting buys.
	Replans       int
	MissedReplans int
	ReplanIters   int
	// Data-plane and evasion outcome.
	Alerts      int
	Injected    int
	Evaded      int
	EvasionRate float64
	// Adaptive-adversary regret (zero outside the adversary cell):
	// RegretFinal is the final normalized regret of FPL vs the best static
	// plan in hindsight, RegretSlope the fitted growth exponent of the
	// cumulative regret — below 1 is sublinear (0 means FPL matched or
	// beat the static optimum outright).
	RegretFinal float64
	RegretSlope float64
	// SLOViolations counts watchdog rule breaches across the run under
	// the cell's thresholds.
	SLOViolations int
}

// scenarioCell is one grid cell's full parameterization: its run as mut
// leaves it, the catalog spec NewScenario resolves into the driver from the
// crashes and bursts knobs (a cell without one sets its driver in mut), and
// its SLO.
type scenarioCell struct {
	name    string
	run     cluster.ScenarioConfig
	mut     func(*cluster.ScenarioConfig)
	spec    string
	crashes cluster.ChaosDriver
	bursts  cluster.BurstDriver
	slo     trace.SLO
	// regret switches on the FPL-vs-evasive-adversary harness for this
	// cell.
	regret bool
}

// Scenarios runs the scenario grid against the cluster runtime: five
// composable drivers (and one explicit composition) under their own SLO
// thresholds plus the adaptive-adversary regret harness, seeded chaos in
// two provisioning regimes, and bursty load crossed with the governor and
// warm or cold replanning. Rows are deterministic for any Workers value.
func Scenarios(cfg Config) ([]ScenarioRow, error) {
	size := func(full, quick int) int {
		if cfg.Quick {
			return quick
		}
		return full
	}
	// The catalog cells share one workload and run seed; their drivers
	// carry their own seeds.
	catalog := cluster.ScenarioConfig{
		Sessions: cfg.sessions(6000), TrafficSeed: 17, Seed: 23,
		Epochs: size(8, 6), Redundancy: 2, Probes: 500,
	}
	epochs := catalog.Epochs
	// The chaos cells replay a seeded crash and outage schedule, with a
	// re-optimization round every three epochs, over a lossy control
	// network.
	crash := cluster.ScenarioConfig{
		Sessions: cfg.sessions(8000), Seed: 71, Epochs: size(10, 5), Redundancy: 1,
		Faults:     chaos.NetworkFaults{DropProb: 0.2, BlackholeProb: 0.05},
		Retry:      cluster.RetryPolicy{MaxAttempts: 6, BaseDelay: 2 * time.Millisecond, MaxDelay: 20 * time.Millisecond, JitterFrac: 0.3},
		StaleGrace: 2,
	}
	// The burst cells: moderate bursts the governor absorbs by shedding
	// alone, and heavy sustained ones that need the drift detector to
	// reprovision.
	burst := cluster.ScenarioConfig{Sessions: cfg.sessions(8000), Seed: 29, Epochs: size(8, 5), Probes: 500}
	moderate := cluster.BurstDriver{BurstFactor: 1.8, BurstProb: 0.5, BaseJitter: 0.05}
	heavy := cluster.BurstDriver{BurstFactor: 2.5, BurstProb: 0.5, BaseJitter: 0.05}
	governed := func(c *cluster.ScenarioConfig) { c.Governor = true }
	replan := func(c *cluster.ScenarioConfig, warm bool, threshold float64) {
		c.Governor, c.Replan, c.WarmReplan, c.ReplanThreshold = true, true, warm, threshold
	}

	// slo bounds a cell's worst and average coverage (0 leaves one
	// unbounded) and admits no dark agent. Every cell promises full wire
	// coverage unless its scenario legitimately spends it: crashes stay
	// within r-1 where r > 1, drains stay within r-1, and the governor
	// floor keeps copy 0 deployed.
	slo := func(worst, avg float64) trace.SLO {
		s := trace.Disabled()
		s.MinWorstCoverage, s.MinAvgCoverage, s.MaxDarkAgents = worst, avg, 0
		return s
	}
	full := slo(0.999, 0.999)

	cells := []scenarioCell{
		{
			name: "diurnal", run: catalog,
			mut: func(c *cluster.ScenarioConfig) {
				c.Driver = NewDiurnal(31, epochs)
				replan(c, true, 0.12)
			},
			slo: full,
		},
		{
			name: "flashcrowd", run: catalog,
			mut: func(c *cluster.ScenarioConfig) { c.Driver, c.Governor = NewFlashCrowd(epochs), true },
			slo: full,
		},
		{
			name: "synflood", run: catalog,
			mut: func(c *cluster.ScenarioConfig) {
				// Redundancy 2 is structurally infeasible for the
				// SYNFlood module, whose egress units have a single
				// eligible node — the paper's point that scope pins some
				// analyses to one location.
				c.Driver = NewSYNFlood(37, epochs)
				c.Modules = floodModules()
				c.Redundancy = 1
				c.Governor = true
				c.DataPlane = true
			},
			slo: full,
		},
		{
			name: "maintenance", run: catalog,
			mut: func(c *cluster.ScenarioConfig) { c.Driver = NewMaintenance(epochs) },
			slo: full,
		},
		{
			name: "maintenance+flashcrowd", run: catalog,
			mut: func(c *cluster.ScenarioConfig) {
				c.Driver = Compose(NewMaintenance(epochs), NewFlashCrowd(epochs))
				c.Governor = true
			},
			// Composition exposes a real interaction: the drain takes one
			// copy and the flash-crowd shed takes the other, so worst-case
			// coverage legitimately dips while the drain window and the
			// spike overlap (the audit predicts the dip — no breach). The
			// cell's SLO bounds the average instead of the worst point.
			slo: slo(0, 0.90),
		},
		{
			name: "adversary", run: catalog,
			mut: func(c *cluster.ScenarioConfig) {
				// Diurnal load keeps the governor honest while the
				// adversary steers crafted sessions at the least-covered
				// published ranges.
				c.Driver = Compose(NewDiurnal(31, epochs), NewAdaptiveAdversary(43))
				replan(c, true, 0.12)
			},
			slo:    full,
			regret: true,
		},
		{
			// The base r=1 deployment of every analysis module: each crash
			// costs coverage, which the audit predicts, so only the dark
			// agent rule applies.
			name: "base_r1", run: crash, spec: "chaos",
			crashes: cluster.ChaosDriver{NodeFailProb: 0.15, ControllerOutageProb: 0.1, ReoptEvery: 3},
			slo:     slo(0, 0),
		},
		{
			// The path-scoped modules at r=2 with crashes capped at r-1:
			// the Section 2.5 guarantee on trial, where coverage must hold.
			name: "redundant_r2", run: crash, spec: "chaos",
			mut:     func(c *cluster.ScenarioConfig) { c.Redundancy = 2 },
			crashes: cluster.ChaosDriver{NodeFailProb: 0.3, ControllerOutageProb: 0.1, ReoptEvery: 3},
			slo:     full,
		},
		{name: "moderate_ungoverned", run: burst, spec: "bursts", bursts: moderate, slo: full},
		{name: "moderate_governed", run: burst, mut: governed, spec: "bursts", bursts: moderate, slo: full},
		{name: "heavy_governed", run: burst, mut: governed, spec: "bursts", bursts: heavy, slo: full},
		{name: "heavy_cold_replan", run: burst, mut: func(c *cluster.ScenarioConfig) { replan(c, false, 0.08) }, spec: "bursts", bursts: heavy, slo: full},
		{name: "heavy_warm_replan", run: burst, mut: func(c *cluster.ScenarioConfig) { replan(c, true, 0.08) }, spec: "bursts", bursts: heavy, slo: full},
	}

	var rows []ScenarioRow
	for _, cell := range cells {
		run := cell.run
		run.Workers, run.Metrics, run.Trace = cfg.Workers, cfg.Metrics, cfg.Trace
		run.Watchdog = trace.NewWatchdog(cell.slo)
		if cell.mut != nil {
			cell.mut(&run)
		}
		if cell.spec != "" {
			if err := NewScenario(&run, cell.spec, cell.crashes, cell.bursts); err != nil {
				return nil, fmt.Errorf("experiments: scenario %s: %w", cell.name, err)
			}
		}
		rep, err := cluster.RunScenario(run)
		if err != nil {
			return nil, fmt.Errorf("experiments: scenario %s: %w", cell.name, err)
		}
		row := ScenarioRow{
			Scenario: cell.name,
			Epochs:   run.Epochs, Redundancy: rep.Redundancy,
			Governor: rep.Governor, Replan: rep.Replan, WarmReplan: run.WarmReplan, DataPlane: run.DataPlane,
			WorstCoverage: rep.WorstCoverage, AvgCoverage: rep.AvgCoverage, ExpectedWorst: 1,
			FloorHeld: rep.FloorHeld, GuaranteeHeld: rep.GuaranteeHeld(), Breaches: rep.Breaches,
			ShedFraction: rep.ShedFraction(),
			Replans:      rep.Replans, MissedReplans: rep.MissedReplans, ReplanIters: rep.TotalReplanIters,
			Alerts:   rep.TotalAlerts,
			Injected: rep.TotalInjected, Evaded: rep.TotalEvaded,
			EvasionRate:   rep.EvasionRate(),
			SLOViolations: rep.SLOViolations,
		}
		for _, e := range rep.Epochs {
			row.ExpectedWorst = min(row.ExpectedWorst, e.ExpectedWorst)
			row.DownNodeEpochs += len(e.DownNodes)
			row.DarkAgentEpochs += e.DarkAgents
			row.FetchAttempts += e.FetchAttempts
			row.FetchFailures += e.FetchFailures
			row.ShedWidthMax = max(row.ShedWidthMax, e.ShedWidth)
			row.OverBudget += e.OverBudget
			row.FloorLimited += e.Unsatisfied
		}
		if cell.regret {
			final, slope, err := adversaryRegret(cfg)
			if err != nil {
				return nil, fmt.Errorf("experiments: scenario %s regret harness: %w", cell.name, err)
			}
			row.RegretFinal, row.RegretSlope = final, slope
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// AssertScenarios is the grid's machine-checked acceptance bar: every cell
// holds its coverage floor under its SLO thresholds; the flood is visible to
// the data plane; the crafted adversary traffic flows and FPL's cumulative
// regret grows sublinearly; the composed cell sheds; crashes within r-1
// never cost coverage; the governor cuts over-budget node-epochs without
// shedding below the floor; and warm replans take fewer iterations than
// cold ones.
func AssertScenarios(rows []ScenarioRow) error {
	var bad []string
	failf := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	byName := map[string]ScenarioRow{}
	for _, r := range rows {
		byName[r.Scenario] = r
		if !r.FloorHeld {
			failf("%s: coverage floor breached (%d breaches)", r.Scenario, r.Breaches)
		}
		if r.SLOViolations != 0 {
			failf("%s: %d SLO violations", r.Scenario, r.SLOViolations)
		}
	}
	row := func(name string) ScenarioRow {
		r, ok := byName[name]
		if !ok {
			failf("%s: no row", name)
		}
		return r
	}

	if r := row("synflood"); r.Alerts == 0 || r.Injected == 0 {
		failf("synflood: alerts %d injected %d, flood invisible to the data plane", r.Alerts, r.Injected)
	}
	if r := row("adversary"); r.Injected == 0 {
		failf("adversary: no crafted sessions reached the runtime")
	} else if r.RegretSlope >= 1 {
		failf("adversary: cumulative regret slope %.4f, want sublinear (<1)", r.RegretSlope)
	}
	if r := row("maintenance+flashcrowd"); r.ShedFraction == 0 {
		failf("maintenance+flashcrowd: no shed, the composition did not carry the flash crowd")
	}

	// Section 2.5 on trial: crashes happened, the prediction stayed at full
	// coverage (crashes within r-1), and the wire delivered it.
	if r := row("redundant_r2"); r.DownNodeEpochs == 0 {
		failf("redundant_r2: no node crashed, the guarantee went untested")
	} else if r.ExpectedWorst != 1 || !r.GuaranteeHeld {
		failf("redundant_r2: predicted worst coverage %.4f, guarantee held %v: crashes beyond r-1 or coverage lost to them",
			r.ExpectedWorst, r.GuaranteeHeld)
	}

	ungov, gov := row("moderate_ungoverned"), row("moderate_governed")
	switch {
	case ungov.OverBudget == 0:
		failf("moderate_ungoverned: never over budget, the burst cells are vacuous")
	case gov.OverBudget >= ungov.OverBudget:
		failf("moderate_governed: %d over-budget node-epochs, ungoverned %d: the governor cut none", gov.OverBudget, ungov.OverBudget)
	}
	if gov.OverBudget > gov.FloorLimited {
		failf("moderate_governed: over-budget %d > floor-limited %d, sheddable width left on an over node", gov.OverBudget, gov.FloorLimited)
	}
	if gov.ShedWidthMax == 0 || gov.WorstCoverage != 1 {
		failf("moderate_governed: max shed width %.4f, worst coverage %.4f: want shedding that keeps copy 0", gov.ShedWidthMax, gov.WorstCoverage)
	}
	cold, warm := row("heavy_cold_replan"), row("heavy_warm_replan")
	if cold.Replans == 0 || warm.Replans == 0 {
		failf("heavy bursts triggered no replans (cold %d, warm %d)", cold.Replans, warm.Replans)
	} else if warm.ReplanIters >= cold.ReplanIters {
		failf("heavy_warm_replan: %d replan iterations, cold %d: warm start bought nothing", warm.ReplanIters, cold.ReplanIters)
	}

	if len(bad) > 0 {
		return fmt.Errorf("acceptance bar failed:\n  %s", strings.Join(bad, "\n  "))
	}
	return nil
}

// adversaryRegret runs the FPL online adapter against the manifest-reading
// evasive adversary on the Section 3.5 instance and reports the final
// normalized regret and the fitted cumulative-regret growth exponent.
// Sublinear (exponent < 1, or 0 when FPL beats the static plan outright)
// is Theorem 3.1's promise holding against an adaptive opponent.
func adversaryRegret(cfg Config) (final, slope float64, err error) {
	epochs, rules, paths, sample := 400, 8, 12, 25
	if cfg.Quick {
		epochs, rules, paths, sample = 150, 5, 8, 15
	}
	inst := nips.NewInstance(topology.Internet2(), nips.UnitRules(rules), nips.Config{
		MaxPaths:             paths,
		RuleCapacityFraction: 1, // no TCAM constraint in Section 3.5
		MatchSeed:            3,
	})
	res, err := online.RunVsAdversary(inst, &online.EvasiveAdversary{
		Inst: inst, High: 0.01, Seed: 11,
	}, online.RunConfig{Epochs: epochs, SampleEvery: sample, Seed: 1009})
	if err != nil {
		return 0, 0, err
	}
	series := res.Series
	if len(series) > 0 {
		final = series[len(series)-1].Normalized
	}
	return final, online.RegretSlope(series), nil
}
