package cluster

import (
	"fmt"
	"sort"

	"nwdeploy/internal/bro"
	"nwdeploy/internal/chaos"
	"nwdeploy/internal/control"
	"nwdeploy/internal/core"
	"nwdeploy/internal/governor"
	"nwdeploy/internal/hashing"
	"nwdeploy/internal/ledger"
	"nwdeploy/internal/obs"
	"nwdeploy/internal/telemetry"
	"nwdeploy/internal/topology"
	"nwdeploy/internal/trace"
	"nwdeploy/internal/traffic"
)

// The scenario runtime: an external, seeded driver decides each epoch's
// environment — traffic modulation, injected sessions, crashes, planned
// drains, controller outages — and the epoch loop (epoch.go) runs it.
// Drivers see the published control-plane state of the previous epoch
// (manifests minus shed), which is exactly the information the paper's
// Section 3.5 adaptive adversary is granted: the defender's decisions are
// public once published, never before.

// Stimulus is one epoch's environment, produced by a ScenarioDriver before
// the epoch runs. The zero value is a quiet epoch: plan-mean traffic,
// nothing injected, everything up.
type Stimulus struct {
	// PairScale multiplies each traffic pair's volume this epoch (indexed
	// like ScenarioEnv.Pairs; nil means 1 everywhere).
	PairScale []float64
	// Inject adds sessions on top of the modeled workload: attack traffic
	// the planner never saw. Injected sessions contribute to the observed
	// per-unit volumes (drift detection, governor projections), are routed
	// to every node on their Src->Dst path for the data plane, and are
	// audited for evasion — but never mutate the planning instance.
	Inject []traffic.Session
	// Faults carries the epoch's crashes and controller outage, with
	// RunEpoch's crash semantics: a crashed node loses its manifest.
	Faults chaos.EpochFaults
	// Drains lists nodes under planned maintenance, ascending. A drained
	// node is down for the epoch but keeps its in-memory manifest, so it
	// rejoins without a re-fetch when the window ends. A node both crashed
	// and drained counts as crashed.
	Drains []int
}

// WeakRange is one segment of a unit's hash space together with its
// published coverage depth (how many live-manifest copies cover it after
// shed subtraction). Depth 0 segments are uncovered; the lowest-depth
// segments are where an adaptive adversary steers unwanted traffic.
type WeakRange struct {
	Unit  int
	Class int
	Key   [2]int
	Depth int
	Range hashing.Range
}

// ScenarioEnv is the driver-visible state at the top of an epoch. Traffic
// shape fields are static per run; the manifest view tracks the previous
// epoch's publishes.
type ScenarioEnv struct {
	// Epoch is 1-based; Epochs is the run length; Nodes the fleet size.
	Epoch, Epochs, Nodes int
	// Pairs and PairMeans describe the modeled traffic matrix: PairScale
	// in a Stimulus is indexed like Pairs, and PairMeans are the gravity
	// mean volumes (items) the factors multiply.
	Pairs     [][2]int
	PairMeans []float64

	inst   *core.Instance
	plan   *core.Plan
	hasher hashing.Hasher
	shed   []map[int]hashing.RangeSet // per node, as published last epoch
}

// Hash returns the hash point the deployment's packet-selection hash
// assigns the tuple under the class — the same value every node computes,
// which is what lets an adversary place traffic inside a chosen range.
func (env *ScenarioEnv) Hash(class int, t hashing.FiveTuple) float64 {
	return env.inst.Classes[class].HashOf(env.hasher, t)
}

// Units exposes the instance's coordination units (read-only by
// convention): the key map an adversary needs to turn a weak range into
// concrete sessions.
func (env *ScenarioEnv) Units() []core.CoordUnit { return env.inst.Units }

// WeakRanges computes the adversary's target list: every unit's hash space
// segmented at published-manifest boundaries, each segment annotated with
// its coverage depth after subtracting published shed, sorted
// least-covered first (then unit, then position) and truncated to max.
// This is a pure function of published state — it never looks at which
// nodes are down, because the paper's adversary reads manifests, not
// liveness.
func (env *ScenarioEnv) WeakRanges(max int) []WeakRange {
	var out []WeakRange
	for ui, u := range env.inst.Units {
		// Effective (manifest minus shed) ranges per assigned node.
		var eff []hashing.RangeSet
		for _, node := range u.Nodes {
			rs := env.plan.Manifests[node].Ranges[ui]
			if node < len(env.shed) && env.shed[node] != nil {
				if cut, ok := env.shed[node][ui]; ok {
					rs = append(hashing.RangeSet(nil), rs...).Subtract(cut)
				}
			}
			eff = append(eff, rs)
		}
		// Segment [0,1) at every boundary and depth-count each midpoint.
		cuts := []float64{0, 1}
		for _, rs := range eff {
			for _, r := range rs {
				cuts = append(cuts, r.Lo, r.Hi)
			}
		}
		sort.Float64s(cuts)
		for i := 0; i+1 < len(cuts); i++ {
			lo, hi := cuts[i], cuts[i+1]
			if hi-lo <= 1e-12 || lo >= 1 || hi <= 0 {
				continue
			}
			mid := lo + (hi-lo)/2
			depth := 0
			for _, rs := range eff {
				if rs.Contains(mid) {
					depth++
				}
			}
			out = append(out, WeakRange{
				Unit: ui, Class: u.Class, Key: u.Key, Depth: depth,
				Range: hashing.Range{Lo: lo, Hi: hi},
			})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Depth != out[b].Depth {
			return out[a].Depth < out[b].Depth
		}
		if out[a].Unit != out[b].Unit {
			return out[a].Unit < out[b].Unit
		}
		return out[a].Range.Lo < out[b].Range.Lo
	})
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out
}

// ScenarioDriver produces each epoch's stimulus. Drivers must be pure
// functions of (their own seeded state, the env): same seed, same stimuli,
// at any worker count — the scenario half of the determinism contract.
type ScenarioDriver interface {
	Name() string
	Step(env *ScenarioEnv) Stimulus
}

// ScenarioConfig parameterizes RunScenario: the deployment and workload,
// the governor and replan knobs, the driver, and the chaos-style
// network/agent options the fault scenarios need.
type ScenarioConfig struct {
	// Driver decides each epoch's environment. Required.
	Driver ScenarioDriver
	// Topo is the monitored network (nil selects Internet2).
	Topo *topology.Topology
	// Modules are the deployed analysis modules (nil selects the
	// PerPath-scoped standard modules — the classes for which the default
	// redundancy 2, and hence sheddable copy >= 1 slices, are feasible;
	// PerIngress/PerEgress units have a single eligible node).
	Modules []bro.ModuleSpec
	// Sessions sizes the generated workload (0 selects 4000); TrafficSeed
	// makes it reproducible (0 selects 7).
	Sessions    int
	TrafficSeed int64
	// Seed drives every runtime random decision (agent jitter, fault
	// streams); drivers carry their own seeds.
	Seed int64
	// Epochs is the run length (0 selects 8).
	Epochs int
	// Redundancy is the provisioned coverage level r (0 selects 2 — the
	// governor needs copy >= 1 slices to shed).
	Redundancy int
	// Governor enables per-node load governing; GovernorCfg tunes it.
	// With Governor false the run still reports projected loads (the
	// exceeds-budget baseline) but nothing sheds.
	Governor    bool
	GovernorCfg governor.Config
	// Replan enables drift-triggered replanning; WarmReplan warm-starts
	// each re-solve from the previous plan's basis (cold otherwise).
	// ReplanThreshold is the EWMA relative-error drift trigger (0 selects
	// 0.2); EWMAAlpha the smoothing weight (0 selects 0.5). ReplanMaxIters
	// bounds each re-solve's simplex iterations — the replan deadline: a
	// solve that exceeds it is abandoned and the epoch falls back to the
	// governors' shed state (0 = no deadline).
	Replan          bool
	WarmReplan      bool
	ReplanThreshold float64
	EWMAAlpha       float64
	ReplanMaxIters  int
	// Faults is the per-exchange fault mix on agent traffic (zero = clean
	// network); Retry/Agent/StaleGrace shape the fetch loops as in
	// Options.
	Faults     chaos.NetworkFaults
	Retry      RetryPolicy
	Agent      control.AgentOptions
	StaleGrace int
	// DataPlane runs each usable agent's engine over its traffic share
	// (base share plus routed injections) every epoch. Off by default:
	// the control-plane audit does not need it, and flood scenarios are
	// the ones that want conntrack/SYNFlood exercised for real.
	DataPlane bool
	// Probes is the coverage audit's per-unit probe grid (0 selects 2000):
	// the resolution of the coverage fractions, not the audit's cost.
	Probes int
	// Workers sizes the worker pools (0 = GOMAXPROCS). Reports are
	// identical for any value.
	Workers int
	// The write-only planes, as in Options. With Fleet on, a drain
	// transition additionally reports a farewell, so a draining node
	// classifies stale — not dark — through its maintenance window.
	Metrics      *obs.Registry
	Trace        *trace.Tracer
	Watchdog     *trace.Watchdog
	Ledger       *ledger.Ledger
	Fleet        *telemetry.Fleet
	FleetHistory *telemetry.History
}

func (cfg ScenarioConfig) withDefaults() ScenarioConfig {
	if cfg.Topo == nil {
		cfg.Topo = topology.Internet2()
	}
	if cfg.Modules == nil {
		for _, m := range bro.StandardModules()[1:] {
			if m.Scope == core.PerPath {
				cfg.Modules = append(cfg.Modules, m)
			}
		}
	}
	if cfg.Sessions <= 0 {
		cfg.Sessions = 4000
	}
	if cfg.TrafficSeed == 0 {
		cfg.TrafficSeed = 7
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 8
	}
	if cfg.Redundancy <= 0 {
		cfg.Redundancy = 2
	}
	return cfg
}

// ScenarioEpoch is one epoch's outcome: the epoch loop's record, of which
// OverloadEpoch and EpochReport are projections. All fields are logical, so
// same-seed runs agree exactly.
type ScenarioEpoch struct {
	// Epoch counts runtime epochs from 1.
	Epoch int
	// Environment echo: which nodes were crashed/drained, controller
	// state, how many sessions the driver injected.
	DownNodes []int
	Drained   []int
	CtrlDown  bool
	Injected  int
	// MaxRelErr is the drift detector's error after this epoch's
	// observation; Drifted reports whether it crossed the threshold.
	// Replanned: a re-solve succeeded and fresh manifests were pushed;
	// ReplanWarm says it warm-started; ReplanIters is its simplex iteration
	// count (the replan latency in deterministic units). ReplanMissed: the
	// solve hit the deadline and the epoch fell back to the governors' shed
	// state.
	MaxRelErr    float64
	Drifted      bool
	Replanned    bool
	ReplanWarm   bool
	ReplanIters  int
	ReplanMissed bool
	// NodeLoads[j] is node j's CPU load fraction after governing (with
	// the governor off: the raw projection); NodeBudgets[j] the plan's
	// prediction (both nil on a cluster that models no volumes).
	// OverBudget counts nodes above budget*(1+tolerance); Unsatisfied
	// counts the nodes the governor could not fit because their remaining
	// load is entirely copy-0 slices — the r=1 coverage floor outranks the
	// budget, so those nodes run hot by design. Under the governor every
	// over-budget node is unsatisfied (OverBudget <= Unsatisfied; the gap
	// is nodes over only on memory, which NodeLoads, a CPU measure, does
	// not show). ShedWidth is the total hash width shed across nodes.
	NodeLoads   []float64
	NodeBudgets []float64
	OverBudget  int
	Unsatisfied int
	ShedWidth   float64
	// ControllerEpoch is the configuration generation the controller
	// served; AgentEpochs[j] the one agent j enforced (0 = none: down,
	// never synced, or dark past grace). SyncedAgents confirmed their
	// manifest against the controller this epoch; StaleAgents are enforcing
	// an unconfirmed one within grace; DarkAgents are up but analyzing
	// nothing. The Fetch fields are fetch-loop totals across agents.
	ControllerEpoch                             uint64
	AgentEpochs                                 []uint64
	SyncedAgents, StaleAgents, DarkAgents       int
	FetchAttempts, FetchFailures, FetchTimeouts int
	// Data-plane outcome: alert total and the busiest engine's CPU units
	// (both zero when the data plane did not run).
	Alerts int
	MaxCPU float64
	// Evasion audit over the injected sessions: Caught had their hash point
	// in the achieved set (below) of their unit for some matching class;
	// Evaded slipped through every published defense.
	InjectedCaught, InjectedEvaded int
	// Achieved wire coverage (usable agents' enforced ranges minus their
	// shed) vs the published expectation (manifests of live nodes minus
	// their shed), both from core.ProbeCoverage on the same grid, so they
	// match exactly when every surviving agent holds a current manifest.
	// Worst below expected is a breach.
	WorstCoverage, AvgCoverage float64
	ExpectedWorst, ExpectedAvg float64
	Breach                     bool
	// SLOViolations are the watchdog rules this epoch breached, rendered
	// "rule=value (bound b)" in fixed rule order; empty without a
	// configured watchdog. A pure function of the other fields.
	SLOViolations []string
}

// ScenarioReport is a full scenario run.
type ScenarioReport struct {
	Scenario   string
	Topology   string
	Nodes      int
	Sessions   int
	Redundancy int
	Seed       int64
	Governor   bool
	Replan     bool
	Objective  float64
	Epochs     []ScenarioEpoch
	// Aggregates across epochs.
	WorstCoverage    float64 // min of epoch worsts
	AvgCoverage      float64 // mean of epoch averages
	FloorHeld        bool    // no epoch's wire coverage fell below expected
	Breaches         int
	Replans          int
	MissedReplans    int
	TotalReplanIters int
	MaxOverBudget    int
	TotalShedWidth   float64
	// AssignedWidth is the plan's total manifest width (the shed
	// denominator: TotalShedWidth / (AssignedWidth * epochs) is the run's
	// shed fraction).
	AssignedWidth float64
	TotalInjected int
	TotalEvaded   int
	TotalAlerts   int
	SLOViolations int
}

// ShedFraction is the run-average fraction of assigned hash width shed.
func (r *ScenarioReport) ShedFraction() float64 {
	if r.AssignedWidth <= 0 || len(r.Epochs) == 0 {
		return 0
	}
	return r.TotalShedWidth / (r.AssignedWidth * float64(len(r.Epochs)))
}

// EvasionRate is the fraction of injected sessions that evaded analysis.
func (r *ScenarioReport) EvasionRate() float64 {
	if r.TotalInjected == 0 {
		return 0
	}
	return float64(r.TotalEvaded) / float64(r.TotalInjected)
}

// RunScenario drives a live cluster through the driver's epochs: apply the
// stimulus (faults, drains, gate), fold modulated and injected volumes
// into the drift detector and the governors, replan on sustained drift,
// push manifests and shed through the normal epoch protocol, optionally
// run the data plane over base-plus-injected traffic, and audit both the
// wire coverage against the published expectation and the injected
// sessions for evasion. Same config, same report, at any worker count.
func RunScenario(cfg ScenarioConfig) (*ScenarioReport, error) {
	cfg = cfg.withDefaults()
	if cfg.Driver == nil {
		return nil, fmt.Errorf("cluster: scenario: nil driver")
	}
	rep, err := runScenario(cfg, func(env *ScenarioEnv) (Stimulus, []float64) {
		return cfg.Driver.Step(env), nil
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: scenario %q: %w", cfg.Driver.Name(), err)
	}
	rep.Scenario = cfg.Driver.Name()
	return rep, nil
}

// runScenario builds the cluster an already-defaulted cfg describes (the
// loop applies no defaults of its own), runs the epoch loop under step,
// and folds the epoch records into the run's aggregates.
func runScenario(cfg ScenarioConfig, step stepper) (*ScenarioReport, error) {
	sessions := traffic.Generate(cfg.Topo, traffic.Gravity(cfg.Topo), traffic.GenConfig{
		Sessions: cfg.Sessions, Seed: cfg.TrafficSeed,
	})
	c, err := New(Options{
		Topo: cfg.Topo, Modules: cfg.Modules, Sessions: sessions,
		Redundancy: cfg.Redundancy, Seed: cfg.Seed,
		Faults: cfg.Faults, Retry: cfg.Retry, Agent: cfg.Agent, StaleGrace: cfg.StaleGrace,
		Workers: cfg.Workers, Probes: cfg.Probes, Metrics: cfg.Metrics,
		Trace: cfg.Trace, Watchdog: cfg.Watchdog, Ledger: cfg.Ledger,
		Fleet: cfg.Fleet, FleetHistory: cfg.FleetHistory,
		CaptureBasis: cfg.Replan && cfg.WarmReplan,
	})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	if err := c.attachDynamics(cfg); err != nil {
		return nil, err
	}

	rep := &ScenarioReport{
		Topology: cfg.Topo.Name, Nodes: cfg.Topo.N(), Sessions: cfg.Sessions,
		Redundancy: cfg.Redundancy, Seed: cfg.Seed,
		Governor: cfg.Governor, Replan: cfg.Replan,
		Objective: c.plan.Objective, WorstCoverage: 1, FloorHeld: true,
	}
	if rep.Epochs, err = c.run(step, cfg.Epochs); err != nil {
		return nil, err
	}
	for _, ep := range rep.Epochs {
		if ep.WorstCoverage < rep.WorstCoverage {
			rep.WorstCoverage = ep.WorstCoverage
		}
		rep.AvgCoverage += ep.AvgCoverage
		if ep.Breach {
			rep.Breaches++
			rep.FloorHeld = false
		}
		if ep.Replanned {
			rep.Replans++
			rep.TotalReplanIters += ep.ReplanIters
		}
		if ep.ReplanMissed {
			rep.MissedReplans++
		}
		if ep.OverBudget > rep.MaxOverBudget {
			rep.MaxOverBudget = ep.OverBudget
		}
		rep.TotalShedWidth += ep.ShedWidth
		rep.TotalInjected += ep.Injected
		rep.TotalEvaded += ep.InjectedEvaded
		rep.TotalAlerts += ep.Alerts
		rep.SLOViolations += len(ep.SLOViolations)
	}
	rep.AvgCoverage /= float64(len(rep.Epochs))
	// Ranges is a map; walk units in index order so the float sum is
	// reproducible.
	for _, m := range c.plan.Manifests {
		for ui := range c.inst.Units {
			rep.AssignedWidth += m.Ranges[ui].Width()
		}
	}
	return rep, nil
}
