package cluster

import (
	"testing"

	"nwdeploy/internal/ledger"
	"nwdeploy/internal/obs"
	"nwdeploy/internal/trace"
)

// planes are the write-only attachments a table-driven test hands an entry
// point, plus the worker count.
type planes struct {
	workers int
	led     *ledger.Ledger
	reg     *obs.Registry
	wd      *trace.Watchdog
}

// entryPoints is one row per run mode over the one epoch loop. run returns
// the mode's report and, per epoch, the ledger verdict that report implies
// (AgentEpochs nil where the report type does not carry them).
var entryPoints = []struct {
	name     string
	seed     int64 // the run seed, which is also the ledger's genesis seed
	governed bool
	run      func(t *testing.T, p planes) (report interface{}, want []CoverageVerdict)
}{
	{"chaos", 21, false, func(t *testing.T, p planes) (interface{}, []CoverageVerdict) {
		cfg := smallChaosConfig(21, p.workers)
		cfg.Ledger, cfg.Metrics, cfg.Watchdog = p.led, p.reg, p.wd
		rep, err := CoverageUnderChaos(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var want []CoverageVerdict
		for _, e := range rep.Epochs {
			want = append(want, CoverageVerdict{
				RunEpoch: e.Epoch, CtrlEpoch: e.ControllerEpoch,
				ControllerDown: e.ControllerDown, DownNodes: e.DownNodes, AgentEpochs: e.AgentEpochs,
				Synced: e.SyncedAgents, Stale: e.StaleAgents, Dark: e.DarkAgents,
				Alerts: e.Alerts, MaxCPU: e.MaxCPU,
				Worst: e.WorstCoverage, Avg: e.AvgCoverage,
				PredictedWorst: e.PredictedWorst, PredictedAvg: e.PredictedAvg,
				SLOViolations: e.SLOViolations,
			})
		}
		return rep, want
	}},
	{"overload", 5, true, func(t *testing.T, p planes) (interface{}, []CoverageVerdict) {
		cfg := smallOverloadConfig(5, p.workers)
		cfg.Ledger, cfg.Metrics, cfg.Watchdog = p.led, p.reg, p.wd
		rep, err := RunOverload(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var want []CoverageVerdict
		for _, e := range rep.Epochs {
			// A clean network with the data plane off: nothing down, stale
			// or dark, no alerts, no engine CPU.
			want = append(want, CoverageVerdict{
				RunEpoch: e.Epoch, Synced: e.SyncedAgents,
				Worst: e.WorstCoverage, Avg: e.AvgCoverage,
				PredictedWorst: e.ShedFloorWorst, PredictedAvg: e.ShedFloorAvg,
				SLOViolations: e.SLOViolations,
			})
		}
		return rep, want
	}},
	{"scenario", 42, true, func(t *testing.T, p planes) (interface{}, []CoverageVerdict) {
		cfg := scriptedFaultConfig(t, p.workers)
		cfg.Ledger, cfg.Metrics, cfg.Watchdog = p.led, p.reg, p.wd
		rep, err := RunScenario(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var want []CoverageVerdict
		for _, e := range rep.Epochs {
			want = append(want, CoverageVerdict{
				RunEpoch: e.Epoch, CtrlEpoch: e.ControllerEpoch,
				ControllerDown: e.CtrlDown, DownNodes: e.DownNodes, AgentEpochs: e.AgentEpochs,
				Synced: e.SyncedAgents, Stale: e.StaleAgents, Dark: e.DarkAgents,
				Alerts: e.Alerts, MaxCPU: e.MaxCPU,
				Worst: e.WorstCoverage, Avg: e.AvgCoverage,
				PredictedWorst: e.ExpectedWorst, PredictedAvg: e.ExpectedAvg,
				SLOViolations: e.SLOViolations,
			})
		}
		return rep, want
	}},
}

// One tally feeds the cluster.* instruments on every entry point: the
// epoch counter matches the report and the fetch counters move.
func TestClusterInstrumentsOnEveryEntryPoint(t *testing.T) {
	for _, ep := range entryPoints {
		t.Run(ep.name, func(t *testing.T) {
			reg := obs.New()
			_, want := ep.run(t, planes{reg: reg})
			if got := reg.Counter("cluster.epochs").Value(); got != int64(len(want)) {
				t.Fatalf("cluster.epochs = %d, report has %d epochs", got, len(want))
			}
			if got := reg.Counter("cluster.fetch_attempts").Value(); got <= 0 {
				t.Fatalf("cluster.fetch_attempts = %d after %d epochs", got, len(want))
			}
		})
	}
}
