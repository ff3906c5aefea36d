package experiments

import (
	"time"

	"nwdeploy/internal/chaos"
	"nwdeploy/internal/cluster"
	"nwdeploy/internal/control"
)

// ChaosRow is one epoch of the runtime-resilience experiment: the injected
// faults, the control plane's convergence, and achieved vs predicted
// coverage. One block per scenario (redundancy level).
type ChaosRow struct {
	Scenario       string
	Redundancy     int
	Epoch          int
	ControllerDown bool
	DownNodes      int
	Synced         int
	Stale          int
	Dark           int
	FetchAttempts  int
	FetchFailures  int
	Alerts         int
	WorstCoverage  float64
	AvgCoverage    float64
	PredictedWorst float64
}

// Chaos runs the cluster runtime under seeded fault injection in two
// provisioning regimes: the base r=1 deployment of the standard modules
// (every failure costs coverage), and an r=2 deployment of the
// path-scoped modules with failures capped at r-1 (the Section 2.5
// guarantee regime, where coverage must hold at 100%). Rows are
// deterministic for any Workers value: the chaos runtime derives every
// decision from the scenario seed.
func Chaos(cfg Config) ([]ChaosRow, error) {
	epochs := 10
	sessions := cfg.sessions(8000)
	if cfg.Quick {
		epochs = 5
	}
	base := cluster.ScenarioConfig{
		Modules: chaosModules(1), Redundancy: 1,
		Sessions: sessions, Epochs: epochs, Seed: 71,
		Faults:     chaos.NetworkFaults{DropProb: 0.2, BlackholeProb: 0.05},
		Retry:      cluster.RetryPolicy{MaxAttempts: 6, BaseDelay: 2 * time.Millisecond, MaxDelay: 20 * time.Millisecond, JitterFrac: 0.3},
		Agent:      control.AgentOptions{DialTimeout: 200 * time.Millisecond, RPCTimeout: 200 * time.Millisecond},
		StaleGrace: 2, DataPlane: true,
		Workers: cfg.Workers,
		Metrics: cfg.Metrics,
		Trace:   cfg.Trace,
	}

	// Both regimes replay a seeded fault schedule with a re-optimization
	// round every three epochs.
	scenarios := []struct {
		name string
		mut  func(*cluster.ScenarioConfig)
	}{
		{"base_r1", func(c *cluster.ScenarioConfig) {
			c.Driver = &cluster.ChaosDriver{Seed: c.Seed, NodeFailProb: 0.15, ControllerOutageProb: 0.1, ReoptEvery: 3}
		}},
		{"redundant_r2", func(c *cluster.ScenarioConfig) {
			// Failures stay within r-1 so the coverage guarantee is on
			// trial.
			c.Redundancy = 2
			c.Modules = chaosModules(2)
			c.Driver = &cluster.ChaosDriver{Seed: c.Seed, NodeFailProb: 0.3, ControllerOutageProb: 0.1, MaxDown: 1, ReoptEvery: 3}
		}},
	}

	var rows []ChaosRow
	for _, sc := range scenarios {
		run := base
		sc.mut(&run)
		rep, err := cluster.RunScenario(run)
		if err != nil {
			return nil, err
		}
		for _, e := range rep.Epochs {
			rows = append(rows, ChaosRow{
				Scenario:       sc.name,
				Redundancy:     rep.Redundancy,
				Epoch:          e.Epoch,
				ControllerDown: e.CtrlDown,
				DownNodes:      len(e.DownNodes),
				Synced:         e.SyncedAgents,
				Stale:          e.StaleAgents,
				Dark:           e.DarkAgents,
				FetchAttempts:  e.FetchAttempts,
				FetchFailures:  e.FetchFailures,
				Alerts:         e.Alerts,
				WorstCoverage:  e.WorstCoverage,
				AvgCoverage:    e.AvgCoverage,
				PredictedWorst: e.ExpectedWorst,
			})
		}
	}
	return rows, nil
}
