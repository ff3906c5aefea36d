package cluster

import (
	"testing"

	"nwdeploy/internal/ledger"
	"nwdeploy/internal/obs"
	"nwdeploy/internal/trace"
)

// planes are the write-only attachments a table-driven test hands a run,
// plus the worker count.
type planes struct {
	workers int
	led     *ledger.Ledger
	reg     *obs.Registry
	wd      *trace.Watchdog
}

// entryPoints is one row per driver over the one entry point, RunScenario;
// config builds the row's run for a worker count.
var entryPoints = []struct {
	name     string
	seed     int64 // the run seed, which is also the ledger's genesis seed
	governed bool
	config   func(t *testing.T, workers int) ScenarioConfig
}{
	{"chaos", 21, false, func(_ *testing.T, workers int) ScenarioConfig { return smallChaosConfig(21, workers) }},
	{"overload", 5, true, func(_ *testing.T, workers int) ScenarioConfig { return smallOverloadConfig(5, workers) }},
	{"scenario", 42, true, scriptedFaultConfig},
}

// runEntryPoint runs one entryPoints row with the given planes attached
// and returns its report and the per-epoch verdicts that report implies.
func runEntryPoint(t *testing.T, config func(*testing.T, int) ScenarioConfig, p planes) (*ScenarioReport, []CoverageVerdict) {
	t.Helper()
	cfg := config(t, p.workers)
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
}

// One tally feeds the cluster.* instruments on every entry point: the
// epoch counter matches the report and the fetch counters move.
func TestClusterInstrumentsOnEveryEntryPoint(t *testing.T) {
	for _, ep := range entryPoints {
		t.Run(ep.name, func(t *testing.T) {
			reg := obs.New()
			_, want := runEntryPoint(t, ep.config, planes{reg: reg})
			if got := reg.Counter("cluster.epochs").Value(); got != int64(len(want)) {
				t.Fatalf("cluster.epochs = %d, report has %d epochs", got, len(want))
			}
			if got := reg.Counter("cluster.fetch_attempts").Value(); got <= 0 {
				t.Fatalf("cluster.fetch_attempts = %d after %d epochs", got, len(want))
			}
		})
	}
}
