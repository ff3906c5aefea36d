package cluster

import (
	"time"

	"nwdeploy/internal/bro"
	"nwdeploy/internal/chaos"
	"nwdeploy/internal/control"
	"nwdeploy/internal/ledger"
	"nwdeploy/internal/obs"
	"nwdeploy/internal/parallel"
	"nwdeploy/internal/telemetry"
	"nwdeploy/internal/topology"
	"nwdeploy/internal/trace"
	"nwdeploy/internal/traffic"
)

// ChaosConfig parameterizes CoverageUnderChaos. The zero value selects a
// complete default scenario (Internet2, the standard modules, a gravity
// workload) so every knob is optional.
type ChaosConfig struct {
	// Topo is the monitored network (nil selects Internet2).
	Topo *topology.Topology
	// Modules are the deployed analysis modules (nil selects the standard
	// set minus the baseline pseudo-module).
	Modules []bro.ModuleSpec
	// Sessions sizes the generated workload (0 selects 4000), drawn from
	// traffic seed 7.
	Sessions int
	// Seed drives every chaos decision — connection faults, jitter, and
	// the generated fault schedule. Same seed, same report.
	Seed int64
	// Epochs is the run length (0 selects 8).
	Epochs int
	// Redundancy is the provisioned coverage level r (0 selects 1).
	Redundancy int
	// Faults is the per-exchange fault mix on every agent's control traffic.
	Faults chaos.NetworkFaults
	// Schedule overrides the generated epoch fault schedule; when nil one
	// is drawn from NodeFailProb (0 selects 0.15), ControllerOutageProb
	// (0 selects 0.1), and MaxDown (0 = uncapped).
	Schedule             *chaos.Schedule
	NodeFailProb         float64
	ControllerOutageProb float64
	MaxDown              int
	// ReoptEvery re-stamps the plan as a new configuration generation
	// every k epochs, modeling the operations center's periodic
	// re-optimization (0 selects 3; negative disables).
	ReoptEvery int
	// StaleGrace is the agents' stale-manifest grace window in epochs
	// (0 selects 2; negative selects 0).
	StaleGrace int
	// Retry shapes the agents' fetch loops (zero value: 4 attempts,
	// 10ms..500ms backoff).
	Retry RetryPolicy
	// Agent sets agent timeouts (zero: 200ms dial, 300ms RPC — loopback
	// exchanges finish in microseconds, so these only bound injected
	// black holes).
	Agent control.AgentOptions
	// Deltas switches agent syncs to v2 delta subscriptions; Encoding
	// selects their response encoding (see Options.Deltas).
	Deltas   bool
	Encoding control.Encoding
	// Probes is the coverage audit's per-unit probe grid (0 selects 2000;
	// use 10000 to match core.CoverageUnderFailure bit for bit). It sets the
	// resolution of the coverage fractions, not the audit's cost.
	Probes int
	// Workers sizes the worker pools (0 = GOMAXPROCS). Reports are
	// identical for any value.
	Workers int
	// The write-only planes, as in Options: reports are DeepEqual with or
	// without any of them.
	Metrics      *obs.Registry
	Trace        *trace.Tracer
	Watchdog     *trace.Watchdog
	Ledger       *ledger.Ledger
	Fleet        *telemetry.Fleet
	FleetHistory *telemetry.History
}

// ChaosReport is a full chaos run: the solved deployment's parameters and
// one EpochReport per epoch. It contains only logical quantities, so runs
// with equal seeds compare DeepEqual.
type ChaosReport struct {
	Topology   string
	Nodes      int
	Sessions   int
	Redundancy int
	Seed       int64
	// Objective is the placement LP's optimum for the deployment.
	Objective float64
	Epochs    []EpochReport
}

func (cfg ChaosConfig) withDefaults() ChaosConfig {
	if cfg.Topo == nil {
		cfg.Topo = topology.Internet2()
	}
	if cfg.Modules == nil {
		cfg.Modules = bro.StandardModules()[1:]
	}
	if cfg.Sessions <= 0 {
		cfg.Sessions = 4000
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 8
	}
	if cfg.Redundancy <= 0 {
		cfg.Redundancy = 1
	}
	if cfg.NodeFailProb == 0 {
		cfg.NodeFailProb = 0.15
	}
	if cfg.ControllerOutageProb == 0 {
		cfg.ControllerOutageProb = 0.1
	}
	if cfg.ReoptEvery == 0 {
		cfg.ReoptEvery = 3
	}
	switch {
	case cfg.StaleGrace == 0:
		cfg.StaleGrace = 2
	case cfg.StaleGrace < 0:
		cfg.StaleGrace = 0
	}
	if cfg.Agent.DialTimeout <= 0 {
		cfg.Agent.DialTimeout = 200 * time.Millisecond
	}
	if cfg.Agent.RPCTimeout <= 0 {
		cfg.Agent.RPCTimeout = 300 * time.Millisecond
	}
	return cfg
}

// CoverageUnderChaos runs the full runtime-resilience experiment: solve
// the deployment, start the cluster, replay the fault schedule epoch by
// epoch, and report achieved coverage against the plan's static
// prediction throughout. This is the dynamic counterpart of the paper's
// Section 2.5 robustness argument — instead of evaluating residual
// coverage of a manifest set on paper, it measures what a live (if
// emulated) deployment delivers while nodes crash, the controller
// disappears, and the control network drops and black-holes connections.
func CoverageUnderChaos(cfg ChaosConfig) (*ChaosReport, error) {
	cfg = cfg.withDefaults()
	sessions := traffic.Generate(cfg.Topo, traffic.Gravity(cfg.Topo), traffic.GenConfig{
		Sessions: cfg.Sessions, Seed: 7,
	})
	c, err := New(Options{
		Topo: cfg.Topo, Modules: cfg.Modules, Sessions: sessions,
		Redundancy: cfg.Redundancy, Seed: cfg.Seed, Faults: cfg.Faults,
		Retry: cfg.Retry, Agent: cfg.Agent, StaleGrace: cfg.StaleGrace,
		Deltas: cfg.Deltas, Encoding: cfg.Encoding,
		Workers: cfg.Workers, Probes: cfg.Probes, Metrics: cfg.Metrics,
		Trace: cfg.Trace, Watchdog: cfg.Watchdog, Ledger: cfg.Ledger,
		Fleet: cfg.Fleet, FleetHistory: cfg.FleetHistory,
	})
	if err != nil {
		return nil, err
	}
	defer c.Close()

	sched := cfg.Schedule
	if sched == nil {
		sched = chaos.BuildSchedule(chaos.ScheduleConfig{
			Epochs: cfg.Epochs, Nodes: cfg.Topo.N(),
			Seed:         parallel.SplitSeed(cfg.Seed, 2),
			NodeFailProb: cfg.NodeFailProb, MaxDown: cfg.MaxDown,
			ControllerOutageProb: cfg.ControllerOutageProb,
		})
	}

	// The driver: the schedule's faults, plus the operations center's
	// periodic re-optimization round.
	eps, err := c.run(func(env *ScenarioEnv) (Stimulus, []float64) {
		e := env.Epoch - 1
		if cfg.ReoptEvery > 0 && e > 0 && e%cfg.ReoptEvery == 0 {
			// The loop has already named the epoch about to run, so the
			// fetches this publish triggers stitch to it.
			c.publish(env.Epoch, c.plan)
		}
		var st Stimulus
		if e < len(sched.Epochs) {
			st.Faults = sched.Epochs[e]
		}
		return st, nil
	}, cfg.Epochs)
	if err != nil {
		return nil, err
	}

	rep := &ChaosReport{
		Topology: cfg.Topo.Name, Nodes: cfg.Topo.N(), Sessions: cfg.Sessions,
		Redundancy: cfg.Redundancy, Seed: cfg.Seed, Objective: c.plan.Objective,
	}
	for _, ep := range eps {
		rep.Epochs = append(rep.Epochs, chaosEpoch(ep))
	}
	return rep, nil
}
