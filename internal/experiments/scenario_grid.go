package experiments

import (
	"fmt"

	"nwdeploy/internal/cluster"
	"nwdeploy/internal/nips"
	"nwdeploy/internal/online"
	"nwdeploy/internal/topology"
	"nwdeploy/internal/trace"
)

// ScenarioRow is one cell of the scenario grid: a composable scenario run
// against the live cluster runtime, summarized across epochs, plus — for
// the adversary cell — the FPL regret measurements from the online
// adaptation harness.
type ScenarioRow struct {
	Scenario   string
	Epochs     int
	Redundancy int
	Governor   bool
	Replan     bool
	DataPlane  bool
	// Coverage and floor outcome: FloorHeld means no epoch's wire-audited
	// coverage fell below what the published manifests (minus down nodes
	// and published shed) promised; every breach left a flight-recorder
	// post-mortem behind.
	WorstCoverage float64
	AvgCoverage   float64
	FloorHeld     bool
	Breaches      int
	// Governor outcome: ShedFraction is the run-average fraction of
	// assigned hash width shed; FloorLimited counts node-epochs pinned at
	// the unsheddable r=1 floor.
	ShedFraction float64
	OverBudget   int
	FloorLimited int
	// Drift/replan outcome.
	Replans       int
	MissedReplans int
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

// scenarioCell is one grid cell's full parameterization.
type scenarioCell struct {
	name string
	mut  func(*cluster.ScenarioConfig)
	slo  trace.SLO
	// regret switches on the FPL-vs-evasive-adversary harness for this
	// cell.
	regret bool
}

// Scenarios runs the scenario grid: five composable drivers (and one
// explicit composition) against the cluster runtime, each with its own
// SLO-watchdog thresholds, plus the adaptive-adversary regret harness.
// Rows are deterministic for any Workers value.
func Scenarios(cfg Config) ([]ScenarioRow, error) {
	sessions := cfg.sessions(6000)
	epochs := 8
	if cfg.Quick {
		epochs = 6
	}

	// Every cell promises full wire coverage and no dark agents: crashes
	// are absent from this grid, drains stay within r-1, and the governor
	// floor keeps copy 0 deployed. Cells relax individual rules where the
	// scenario legitimately spends them.
	baseSLO := func() trace.SLO {
		slo := trace.Disabled()
		slo.MinWorstCoverage = 0.999
		slo.MinAvgCoverage = 0.999
		slo.MaxDarkAgents = 0
		return slo
	}

	cells := []scenarioCell{
		{
			name: "diurnal",
			mut: func(c *cluster.ScenarioConfig) {
				c.Driver = NewDiurnal(31, epochs)
				c.Governor = true
				c.Replan, c.WarmReplan = true, true
				c.ReplanThreshold = 0.12
			},
			slo: baseSLO(),
		},
		{
			name: "flashcrowd",
			mut: func(c *cluster.ScenarioConfig) {
				c.Driver = NewFlashCrowd(epochs)
				c.Governor = true
			},
			slo: baseSLO(),
		},
		{
			name: "synflood",
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
			slo: baseSLO(),
		},
		{
			name: "maintenance",
			mut: func(c *cluster.ScenarioConfig) {
				c.Driver = NewMaintenance(epochs)
			},
			slo: baseSLO(),
		},
		{
			name: "maintenance+flashcrowd",
			mut: func(c *cluster.ScenarioConfig) {
				c.Driver = Compose(NewMaintenance(epochs), NewFlashCrowd(epochs))
				c.Governor = true
			},
			// Composition exposes a real interaction: the drain takes one
			// copy and the flash-crowd shed takes the other, so worst-case
			// coverage legitimately dips while the drain window and the
			// spike overlap (the audit predicts the dip — no breach). The
			// cell's SLO bounds the average instead of the worst point.
			slo: func() trace.SLO {
				slo := baseSLO()
				slo.MinWorstCoverage = 0
				slo.MinAvgCoverage = 0.90
				return slo
			}(),
		},
		{
			name: "adversary",
			mut: func(c *cluster.ScenarioConfig) {
				// Diurnal load keeps the governor honest while the
				// adversary steers crafted sessions at the least-covered
				// published ranges.
				c.Driver = Compose(NewDiurnal(31, epochs), NewAdaptiveAdversary(43))
				c.Governor = true
				c.Replan, c.WarmReplan = true, true
				c.ReplanThreshold = 0.12
			},
			slo:    baseSLO(),
			regret: true,
		},
	}

	var rows []ScenarioRow
	for _, cell := range cells {
		run := cluster.ScenarioConfig{
			Sessions: sessions, TrafficSeed: 17, Seed: 23,
			Epochs: epochs, Redundancy: 2,
			Probes:  500,
			Workers: cfg.Workers, Metrics: cfg.Metrics, Trace: cfg.Trace,
			Watchdog: trace.NewWatchdog(cell.slo),
		}
		cell.mut(&run)
		rep, err := cluster.RunScenario(run)
		if err != nil {
			return nil, fmt.Errorf("experiments: scenario %s: %w", cell.name, err)
		}
		row := ScenarioRow{
			Scenario: cell.name,
			Epochs:   epochs, Redundancy: rep.Redundancy,
			Governor: rep.Governor, Replan: rep.Replan, DataPlane: run.DataPlane,
			WorstCoverage: rep.WorstCoverage, AvgCoverage: rep.AvgCoverage,
			FloorHeld: rep.FloorHeld, Breaches: rep.Breaches,
			ShedFraction: rep.ShedFraction(),
			Replans:      rep.Replans, MissedReplans: rep.MissedReplans,
			Alerts:   rep.TotalAlerts,
			Injected: rep.TotalInjected, Evaded: rep.TotalEvaded,
			EvasionRate:   rep.EvasionRate(),
			SLOViolations: rep.SLOViolations,
		}
		for _, e := range rep.Epochs {
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
