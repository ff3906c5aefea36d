package cluster

import (
	"testing"
	"time"

	"nwdeploy/internal/bro"
	"nwdeploy/internal/chaos"
	"nwdeploy/internal/control"
	"nwdeploy/internal/core"
	"nwdeploy/internal/topology"
	"nwdeploy/internal/traffic"
)

// fastRetry keeps test fetch loops snappy without changing their logic.
var fastRetry = RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond}

// fastAgent keeps injected black holes from stalling tests.
var fastAgent = control.AgentOptions{DialTimeout: 200 * time.Millisecond, RPCTimeout: 150 * time.Millisecond}

func testSessions(t *testing.T, topo *topology.Topology, n int) []traffic.Session {
	t.Helper()
	return traffic.Generate(topo, traffic.Gravity(topo), traffic.GenConfig{Sessions: n, Seed: 7})
}

// newTestCluster builds a cluster for step-by-step epoch tests. Zero
// fields select the chaos-style test deployment — the standard modules at
// r = 1 over an 800-session workload, the data plane on, fast retries and
// timeouts, a 500-point probe grid — and then RunScenario's defaults.
func newTestCluster(t *testing.T, cfg ScenarioConfig) *Cluster {
	t.Helper()
	if cfg.Modules == nil {
		cfg.Modules = bro.StandardModules()[1:]
	}
	if cfg.Sessions == 0 {
		cfg.Sessions = 800
	}
	if cfg.Redundancy == 0 {
		cfg.Redundancy = 1
	}
	if cfg.Retry.MaxAttempts == 0 {
		cfg.Retry = fastRetry
	}
	if cfg.Agent.RPCTimeout == 0 {
		cfg.Agent = fastAgent
	}
	if cfg.Probes == 0 {
		cfg.Probes = 500
	}
	cfg.DataPlane = true
	c, err := newCluster(cfg.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// On a clean network every agent converges to the controller's epoch and
// the achieved coverage equals the plan's full-coverage prediction.
func TestClusterConvergesOnCleanNetwork(t *testing.T) {
	c := newTestCluster(t, ScenarioConfig{Seed: 11})
	n := len(c.agents)
	rep := c.RunEpoch(chaos.EpochFaults{})
	if rep.SyncedAgents != n || rep.StaleAgents != 0 || rep.DarkAgents != 0 {
		t.Fatalf("synced/stale/dark = %d/%d/%d, want %d/0/0",
			rep.SyncedAgents, rep.StaleAgents, rep.DarkAgents, n)
	}
	if rep.ControllerEpoch != 1 {
		t.Fatalf("controller epoch %d, want 1", rep.ControllerEpoch)
	}
	for j, e := range rep.AgentEpochs {
		if e != 1 {
			t.Fatalf("agent %d epoch %d, want 1", j, e)
		}
	}
	if rep.WorstCoverage != 1 || rep.ExpectedWorst != 1 {
		t.Fatalf("coverage worst %v predicted %v, want 1/1", rep.WorstCoverage, rep.ExpectedWorst)
	}
	if rep.WorstCoverage != rep.ExpectedWorst || rep.AvgCoverage != rep.ExpectedAvg {
		t.Fatal("achieved coverage diverges from prediction on a healthy epoch")
	}
	if rep.FetchAttempts != n {
		t.Fatalf("fetch attempts %d, want %d (one per agent, no retries)", rep.FetchAttempts, n)
	}
}

// The cluster's data plane — engines driven purely by fetched wire
// manifests — must reproduce the emulation's plan-driven coordinated
// deployment: same alerts, same busiest-node CPU.
func TestClusterDataPlaneMatchesEmulation(t *testing.T) {
	topo := topology.Internet2()
	modules := bro.StandardModules()[1:]
	sessions := testSessions(t, topo, 1500)

	c := newTestCluster(t, ScenarioConfig{Topo: topo, Modules: modules, Sessions: 1500, Seed: 3})
	rep := c.RunEpoch(chaos.EpochFaults{})

	em, err := bro.NewEmulation(topo, modules, sessions, core.UniformCaps(topo.N(), 1e9, 1e12))
	if err != nil {
		t.Fatal(err)
	}
	res := em.Run(bro.DeployCoordinated)
	wantAlerts, wantMaxCPU := 0, 0.0
	for _, r := range res.Reports {
		wantAlerts += r.Alerts
		if r.CPUUnits > wantMaxCPU {
			wantMaxCPU = r.CPUUnits
		}
	}
	if rep.Alerts != wantAlerts {
		t.Fatalf("cluster alerts %d, emulation alerts %d", rep.Alerts, wantAlerts)
	}
	if rep.MaxCPU != wantMaxCPU {
		t.Fatalf("cluster max CPU %v, emulation max CPU %v", rep.MaxCPU, wantMaxCPU)
	}
}

// Under a lossy control network the agents retry and still converge; the
// retry accounting must show the extra attempts.
func TestClusterRetriesThroughLossyNetwork(t *testing.T) {
	c := newTestCluster(t, ScenarioConfig{
		Seed:   5,
		Faults: chaos.NetworkFaults{DropProb: 0.4, BlackholeProb: 0.1},
		Retry:  RetryPolicy{MaxAttempts: 12, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond, JitterFrac: 0.5},
		Agent:  control.AgentOptions{DialTimeout: 100 * time.Millisecond, RPCTimeout: 100 * time.Millisecond},
	})
	n := len(c.agents)
	rep := c.RunEpoch(chaos.EpochFaults{})
	if rep.SyncedAgents != n {
		t.Fatalf("synced %d/%d despite a 12-attempt budget under 50%% faults", rep.SyncedAgents, n)
	}
	if rep.FetchAttempts <= n {
		t.Fatalf("fetch attempts %d implies no retries under 50%% faults", rep.FetchAttempts)
	}
	if rep.FetchFailures == 0 {
		t.Fatal("no fetch failures recorded under 50% faults")
	}
	if rep.FetchTimeouts == 0 {
		t.Fatal("no timeouts recorded despite black-hole faults")
	}
	if rep.WorstCoverage != 1 {
		t.Fatalf("coverage %v after full convergence", rep.WorstCoverage)
	}
}

// A controller outage walks agents through the staleness ladder: synced ->
// stale (serving the last manifest, coverage intact) -> dark past the
// grace window (coverage gone) -> synced again after recovery.
func TestControllerOutageStaleThenDark(t *testing.T) {
	c := newTestCluster(t, ScenarioConfig{Seed: 9, StaleGrace: 1})
	n := len(c.agents)

	if rep := c.RunEpoch(chaos.EpochFaults{}); rep.SyncedAgents != n {
		t.Fatalf("epoch 1: synced %d/%d", rep.SyncedAgents, n)
	}

	// The controller re-optimizes and immediately becomes unreachable:
	// agents keep enforcing the previous generation within grace.
	c.BumpEpoch()
	rep := c.RunEpoch(chaos.EpochFaults{ControllerDown: true})
	if rep.StaleAgents != n || rep.SyncedAgents != 0 {
		t.Fatalf("epoch 2: stale %d synced %d, want %d/0", rep.StaleAgents, rep.SyncedAgents, n)
	}
	if rep.ControllerEpoch != 2 {
		t.Fatalf("epoch 2: controller epoch %d, want 2", rep.ControllerEpoch)
	}
	for j, e := range rep.AgentEpochs {
		if e != 1 {
			t.Fatalf("epoch 2: agent %d enforces epoch %d, want stale epoch 1", j, e)
		}
	}
	if rep.WorstCoverage != 1 {
		t.Fatalf("epoch 2: stale manifests should still cover fully, got %v", rep.WorstCoverage)
	}

	// Outage persists past the grace window: agents go dark.
	rep = c.RunEpoch(chaos.EpochFaults{ControllerDown: true})
	if rep.DarkAgents != n || rep.StaleAgents != 0 {
		t.Fatalf("epoch 3: dark %d stale %d, want %d/0", rep.DarkAgents, rep.StaleAgents, n)
	}
	if rep.WorstCoverage != 0 {
		t.Fatalf("epoch 3: dark cluster still reports coverage %v", rep.WorstCoverage)
	}

	// Recovery: one epoch restores full coverage.
	rep = c.RunEpoch(chaos.EpochFaults{})
	if rep.SyncedAgents != n || rep.WorstCoverage != 1 {
		t.Fatalf("epoch 4: synced %d coverage %v after recovery", rep.SyncedAgents, rep.WorstCoverage)
	}
}

// A crash loses the node's in-memory manifest: after restart it must
// re-fetch before analyzing, and until the controller is reachable it is
// dark while never-crashed agents are merely stale.
func TestCrashLosesManifestUntilResync(t *testing.T) {
	c := newTestCluster(t, ScenarioConfig{Seed: 13, StaleGrace: 3})
	n := len(c.agents)
	const victim = 4

	if rep := c.RunEpoch(chaos.EpochFaults{}); rep.SyncedAgents != n {
		t.Fatalf("epoch 1: synced %d/%d", rep.SyncedAgents, n)
	}
	rep := c.RunEpoch(chaos.EpochFaults{DownNodes: []int{victim}})
	if rep.AgentEpochs[victim] != 0 {
		t.Fatalf("epoch 2: crashed agent reports epoch %d", rep.AgentEpochs[victim])
	}
	if rep.ExpectedWorst != rep.WorstCoverage {
		t.Fatalf("epoch 2: achieved %v != predicted %v for the same down set",
			rep.WorstCoverage, rep.ExpectedWorst)
	}

	// Victim restarts into a controller outage: no manifest to fall back
	// on, so it is dark while everyone else serves stale manifests.
	rep = c.RunEpoch(chaos.EpochFaults{ControllerDown: true})
	if rep.DarkAgents != 1 || rep.StaleAgents != n-1 {
		t.Fatalf("epoch 3: dark %d stale %d, want 1/%d", rep.DarkAgents, rep.StaleAgents, n-1)
	}
	if rep.AgentEpochs[victim] != 0 {
		t.Fatalf("epoch 3: restarted agent kept epoch %d across a crash", rep.AgentEpochs[victim])
	}

	rep = c.RunEpoch(chaos.EpochFaults{})
	if rep.SyncedAgents != n || rep.WorstCoverage != 1 {
		t.Fatalf("epoch 4: synced %d coverage %v after resync", rep.SyncedAgents, rep.WorstCoverage)
	}
}

// Converge is the benchmark's unit of work; it must report full
// convergence on a clean network.
func TestConverge(t *testing.T) {
	c := newTestCluster(t, ScenarioConfig{Seed: 17})
	if got, want := c.Converge(), len(c.agents); got != want {
		t.Fatalf("Converge() = %d, want %d", got, want)
	}
}
