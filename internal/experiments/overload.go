package experiments

import (
	"fmt"

	"nwdeploy/internal/cluster"
)

// OverloadRow is one cell of the overload-resilience grid: a burst
// amplitude crossed with governor on/off and (at the heavier amplitude)
// warm vs cold replanning, summarized across the run's epochs.
type OverloadRow struct {
	Scenario    string
	BurstFactor float64
	Governor    bool
	Replan      bool
	WarmReplan  bool
	// WorstCoverage/AvgCoverage summarize the wire-audited coverage across
	// epochs; OverBudget counts node-epochs above the tolerated CPU budget
	// and FloorLimited the node-epochs whose remaining load (CPU or memory)
	// is the unsheddable r=1 coverage floor — under the governor every
	// over-budget node is floor-limited.
	WorstCoverage float64
	AvgCoverage   float64
	OverBudget    int
	FloorLimited  int
	ShedWidthMax  float64
	// Replans/MissedReplans/ReplanIters report the drift-replanning side:
	// iterations are the deterministic replan-latency unit, so the warm
	// vs cold rows quantify what warm-starting buys.
	Replans       int
	MissedReplans int
	ReplanIters   int
}

// Overload runs the overload-resilience grid: bursty traffic at two
// amplitudes, with the per-node governor on and off, and drift-triggered
// replanning warm- and cold-started. Rows are deterministic for any
// Workers value.
func Overload(cfg Config) ([]OverloadRow, error) {
	sessions := cfg.sessions(8000)
	epochs := 8
	if cfg.Quick {
		epochs = 5
	}
	base := cluster.ScenarioConfig{
		Sessions: sessions, Epochs: epochs, Seed: 29,
		Probes:  500,
		Workers: cfg.Workers, Metrics: cfg.Metrics, Trace: cfg.Trace,
	}

	scenarios := []struct {
		name        string
		burstFactor float64
		mut         func(*cluster.ScenarioConfig)
	}{
		// Moderate bursts: the governor absorbs them entirely by shedding;
		// ungoverned nodes run hot.
		{"moderate_ungoverned", 1.8, func(*cluster.ScenarioConfig) {}},
		{"moderate_governed", 1.8, func(c *cluster.ScenarioConfig) {
			c.Governor = true
		}},
		// Heavy sustained bursts: shedding alone is not enough, the drift
		// detector must reprovision — cold vs warm-started re-solves.
		{"heavy_governed", 2.5, func(c *cluster.ScenarioConfig) {
			c.Governor = true
		}},
		{"heavy_cold_replan", 2.5, func(c *cluster.ScenarioConfig) {
			c.Governor = true
			c.Replan = true
			c.ReplanThreshold = 0.08
		}},
		{"heavy_warm_replan", 2.5, func(c *cluster.ScenarioConfig) {
			c.Governor = true
			c.Replan = true
			c.WarmReplan = true
			c.ReplanThreshold = 0.08
		}},
	}

	var rows []OverloadRow
	for _, sc := range scenarios {
		run := base
		sc.mut(&run)
		run.Driver = &cluster.BurstDriver{Seed: run.Seed, BurstFactor: sc.burstFactor, BurstProb: 0.5, BaseJitter: 0.05}
		rep, err := cluster.RunScenario(run)
		if err != nil {
			return nil, fmt.Errorf("experiments: overload %s: %w", sc.name, err)
		}
		row := OverloadRow{
			Scenario:    sc.name,
			BurstFactor: sc.burstFactor,
			Governor:    rep.Governor, Replan: rep.Replan, WarmReplan: run.WarmReplan,
			WorstCoverage: rep.WorstCoverage, AvgCoverage: rep.AvgCoverage,
			Replans: rep.Replans, MissedReplans: rep.MissedReplans,
			ReplanIters: rep.TotalReplanIters,
		}
		for _, e := range rep.Epochs {
			row.OverBudget += e.OverBudget
			row.FloorLimited += e.Unsatisfied
			if e.ShedWidth > row.ShedWidthMax {
				row.ShedWidthMax = e.ShedWidth
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}
