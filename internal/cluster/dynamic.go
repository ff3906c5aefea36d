package cluster

import (
	"errors"
	"fmt"
	"sort"

	"nwdeploy/internal/bro"
	"nwdeploy/internal/chaos"
	"nwdeploy/internal/control"
	"nwdeploy/internal/core"
	"nwdeploy/internal/governor"
	"nwdeploy/internal/hashing"
	"nwdeploy/internal/ledger"
	"nwdeploy/internal/lp"
	"nwdeploy/internal/obs"
	"nwdeploy/internal/parallel"
	"nwdeploy/internal/telemetry"
	"nwdeploy/internal/topology"
	"nwdeploy/internal/trace"
	"nwdeploy/internal/traffic"
)

// The scenario runtime: a generalization of RunOverload where an external,
// seeded driver decides each epoch's environment — traffic modulation,
// injected sessions, crashes, planned drains, controller outages — instead
// of one hardwired burst series. Drivers see the published control-plane
// state of the previous epoch (manifests minus shed), which is exactly the
// information the paper's Section 3.5 adaptive adversary is granted: the
// defender's decisions are public once published, never before.

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

// ScenarioConfig parameterizes RunScenario: the overload runtime's knobs
// plus the driver and the chaos-style network/agent options the fault
// scenarios need.
type ScenarioConfig struct {
	// Driver decides each epoch's environment. Required.
	Driver ScenarioDriver
	// Topo is the monitored network (nil selects Internet2).
	Topo *topology.Topology
	// Modules are the deployed analysis modules (nil selects the
	// PerPath-scoped standard modules, as in OverloadConfig).
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
	// Redundancy is the provisioned coverage level r (0 selects 2).
	Redundancy int
	// Governor enables per-node load governing; GovernorCfg tunes it.
	Governor    bool
	GovernorCfg governor.Config
	// Replan/WarmReplan/ReplanThreshold/EWMAAlpha/ReplanMaxIters: the
	// drift-triggered replan loop, as in OverloadConfig.
	Replan          bool
	WarmReplan      bool
	ReplanThreshold float64
	EWMAAlpha       float64
	ReplanMaxIters  int
	// Faults is the per-connection fault mix on agent dials (zero = clean
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
	// Probes is the coverage probe count per unit (0 selects 2000).
	Probes int
	// Workers sizes the worker pools (0 = GOMAXPROCS). Reports are
	// identical for any value.
	Workers int
	// Metrics/Trace/Watchdog/Ledger: write-only observability, as in
	// OverloadConfig.
	Metrics  *obs.Registry
	Trace    *trace.Tracer
	Watchdog *trace.Watchdog
	Ledger   *ledger.Ledger
	// Fleet/FleetHistory turn on the fleet telemetry plane (see
	// Options.Fleet). The scenario runtime additionally reports a drain
	// farewell at each drain transition, so a draining node classifies
	// stale — not dark — through its maintenance window. Write-only.
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
	if cfg.ReplanThreshold == 0 {
		cfg.ReplanThreshold = 0.2
	}
	return cfg
}

// ScenarioEpoch is one epoch's outcome under a scenario.
type ScenarioEpoch struct {
	Epoch int
	// Environment echo: which nodes were crashed/drained, controller
	// state, how many sessions the driver injected.
	DownNodes []int
	Drained   []int
	CtrlDown  bool
	Injected  int
	// Drift/replan outcome, as in OverloadEpoch.
	MaxRelErr    float64
	Drifted      bool
	Replanned    bool
	ReplanWarm   bool
	ReplanIters  int
	ReplanMissed bool
	// Governor outcome.
	OverBudget  int
	Unsatisfied int
	ShedWidth   float64
	// Control-plane weather.
	SyncedAgents, StaleAgents, DarkAgents int
	// Data-plane outcome (zero when DataPlane is off).
	Alerts int
	MaxCPU float64
	// Evasion audit over the injected sessions: Caught had at least one
	// usable analyst covering their hash point for some matching class;
	// Evaded slipped through every published defense.
	InjectedCaught, InjectedEvaded int
	// Achieved wire coverage vs the published expectation (manifests of
	// live nodes minus their shed). Worst below expected is a breach.
	WorstCoverage, AvgCoverage float64
	ExpectedWorst              float64
	Breach                     bool
	// SLOViolations are the watchdog rules this epoch breached.
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

	probes := c.opts.Probes
	hasher := hashing.Hasher{Key: c.opts.HashKey}
	paths := cfg.Topo.PathMatrix()
	pv := traffic.Volumes(cfg.Topo, traffic.Gravity(cfg.Topo), 0)
	scaler := newUnitScales(c.inst, pv, nil)

	orig := c.inst
	origPkts := make([]float64, len(orig.Units))
	origItems := make([]float64, len(orig.Units))
	for ui, u := range orig.Units {
		origPkts[ui] = u.Pkts
		origItems[ui] = u.Items
	}
	detector := NewDriftDetector(origPkts, cfg.EWMAAlpha, cfg.ReplanThreshold)

	gcfg := cfg.GovernorCfg
	if gcfg.Metrics == nil {
		gcfg.Metrics = cfg.Metrics
	}
	govs := make([]*governor.Governor, cfg.Topo.N())
	buildGovernors := func() error {
		for j := range govs {
			g, err := governor.New(c.plan, j, hasher, gcfg)
			if err != nil {
				return err
			}
			govs[j] = g
		}
		return nil
	}
	if err := buildGovernors(); err != nil {
		return nil, err
	}
	lastBasis := c.plan.Basis
	tol := cfg.GovernorCfg.Tolerance
	if tol == 0 {
		tol = 0.1
	}

	rep := &ScenarioReport{
		Scenario: cfg.Driver.Name(),
		Topology: cfg.Topo.Name, Nodes: cfg.Topo.N(), Sessions: cfg.Sessions,
		Redundancy: cfg.Redundancy, Seed: cfg.Seed,
		Governor: cfg.Governor, Replan: cfg.Replan,
		Objective: c.plan.Objective, WorstCoverage: 1, FloorHeld: true,
	}
	assignedWidth := func() float64 {
		// Ranges is a map; walk units in index order so the float sum is
		// reproducible.
		var w float64
		for _, m := range c.plan.Manifests {
			for ui := range c.inst.Units {
				w += m.Ranges[ui].Width()
			}
		}
		return w
	}
	rep.AssignedWidth = assignedWidth()

	// lastShed is the published shed state drivers (and the expectation
	// audit) see: what the governors pushed at the end of the previous
	// epoch. Empty before the first governor phase.
	lastShed := make([]map[int]hashing.RangeSet, cfg.Topo.N())

	for e := 0; e < cfg.Epochs; e++ {
		ep := ScenarioEpoch{Epoch: e + 1}
		c.epoch = e + 1
		cfg.Ledger.SetRun(c.epoch)
		c.epochSpan = cfg.Trace.Epoch(ep.Epoch)
		ctrlSpan := c.epochSpan.Child("controller", -1)

		// The driver observes last epoch's published state and commits to
		// this epoch's environment before any of it runs — the Section 3.5
		// information order.
		env := &ScenarioEnv{
			Epoch: ep.Epoch, Epochs: cfg.Epochs, Nodes: cfg.Topo.N(),
			Pairs: pv.Pairs, PairMeans: pv.Items,
			inst: c.inst, plan: c.plan, hasher: hasher, shed: lastShed,
		}
		st := cfg.Driver.Step(env)
		if st.PairScale != nil && len(st.PairScale) != len(pv.Pairs) {
			return nil, fmt.Errorf("cluster: scenario %q: %d pair scales for %d pairs",
				cfg.Driver.Name(), len(st.PairScale), len(pv.Pairs))
		}
		ep.CtrlDown = st.Faults.ControllerDown
		ep.Injected = len(st.Inject)
		c.epochSpan.Event(trace.EvEpochStart,
			trace.Int("ctrl_down", boolToInt(ep.CtrlDown)),
			trace.Int("down", len(st.Faults.DownNodes)), trace.Int("drains", len(st.Drains)))
		if ep.Injected > 0 {
			c.epochSpan.Event(trace.EvInject, trace.Int("count", ep.Injected))
		}

		// Apply the epoch's faults. Crashes lose the manifest; drains keep
		// it. A node both crashed and drained counts as crashed.
		c.gate.SetOpen(!st.Faults.ControllerDown)
		for j, a := range c.agents {
			wasDown := a.down
			crashed := st.Faults.Down(j)
			drained := !crashed && containsInt(st.Drains, j)
			a.down = crashed || drained
			if crashed {
				ep.DownNodes = append(ep.DownNodes, j)
				if !wasDown {
					a.restart()
					a.staleEpochs = 0
					c.epochSpan.Child("agent", j).Event(trace.EvCrashRestart)
				}
			} else if drained {
				ep.Drained = append(ep.Drained, j)
				if !wasDown {
					c.epochSpan.Child("agent", j).Event(trace.EvDrain)
					c.fleetDrainFarewell(a)
				}
			}
		}

		// Offered volumes: pair modulation over the original workload, plus
		// the injected sessions' contributions to every matching class.
		sc := scaler.factors(st.PairScale)
		obsPkts := make([]float64, len(origPkts))
		obsItems := make([]float64, len(origItems))
		for ui := range obsPkts {
			obsPkts[ui] = origPkts[ui] * sc[ui]
			obsItems[ui] = origItems[ui] * sc[ui]
		}
		for _, s := range st.Inject {
			for ci := range c.inst.Classes {
				if !c.inst.Classes[ci].Matches(s) {
					continue
				}
				if ui, ok := c.inst.UnitFor(ci, s); ok {
					obsPkts[ui] += float64(s.Packets)
				}
			}
		}

		// Drift detection and (optionally) the deadline-bounded replan,
		// identical to the overload runtime.
		ep.MaxRelErr = detector.Observe(obsPkts)
		ep.Drifted = detector.Drifted()
		c.epochSpan.Event(trace.EvDrift,
			trace.F64("rel_err", ep.MaxRelErr), trace.Int("drifted", boolToInt(ep.Drifted)))
		if cfg.Replan && ep.Drifted {
			smPkts := detector.Smoothed()
			smItems := make([]float64, len(smPkts))
			for ui := range smItems {
				if origPkts[ui] > 0 {
					smItems[ui] = origItems[ui] * smPkts[ui] / origPkts[ui]
				} else {
					smItems[ui] = origItems[ui]
				}
			}
			inst2, err := c.inst.WithVolumes(smPkts, smItems)
			if err != nil {
				return nil, err
			}
			sopts := core.SolveOptions{
				Redundancy: cfg.Redundancy, MaxIters: cfg.ReplanMaxIters,
				Metrics: cfg.Metrics, CaptureBasis: true,
			}
			if cfg.WarmReplan && lastBasis != nil {
				sopts.WarmBasis = lastBasis
			}
			plan2, err := core.SolveOpts(inst2, sopts)
			switch {
			case err == nil:
				c.plan, c.inst = plan2, inst2
				publishTraced(cfg.Trace, cfg.Ledger, c.ctrl, ep.Epoch, plan2)
				lastBasis = plan2.Basis
				detector.Rebase(smPkts)
				if err := buildGovernors(); err != nil {
					return nil, err
				}
				rep.AssignedWidth = assignedWidth()
				ep.Replanned = true
				ep.ReplanWarm = sopts.WarmBasis != nil
				ep.ReplanIters = plan2.SolverIters
				rep.Replans++
				rep.TotalReplanIters += plan2.SolverIters
				cfg.Metrics.Add("scenario.replans", 1)
				if ep.ReplanWarm {
					c.epochSpan.Event(trace.EvReplanWarm, trace.Int("iters", ep.ReplanIters))
				} else {
					c.epochSpan.Event(trace.EvReplanCold, trace.Int("iters", ep.ReplanIters))
				}
			case errors.Is(err, lp.ErrIterLimit):
				ep.ReplanMissed = true
				rep.MissedReplans++
				cfg.Metrics.Add("scenario.replan_misses", 1)
				c.epochSpan.Event(trace.EvDeadlineMiss, trace.Int("max_iters", cfg.ReplanMaxIters))
				cfg.Trace.DumpOnce("deadline_miss")
			default:
				return nil, fmt.Errorf("cluster: scenario replan: %w", err)
			}
		}

		// Governor phase against the current plan's volumes.
		scVsPlan := make([]float64, len(obsPkts))
		for ui := range scVsPlan {
			if p := c.inst.Units[ui].Pkts; p > 0 {
				scVsPlan[ui] = obsPkts[ui] / p
			} else {
				scVsPlan[ui] = 1
			}
		}
		if ctrlSpan.Live() {
			c.ctrl.SetTrace(&control.WireTrace{Trace: ctrlSpan.TraceHex(), Span: ctrlSpan.SpanHex()})
		}
		var attests []governor.Attestation
		for j, g := range govs {
			g.AttachSpan(c.epochSpan.Child("governor", j))
			grep, err := g.PlanEpoch(scVsPlan)
			if err != nil {
				return nil, err
			}
			c.agents[j].lastFloor = cfg.Governor && !grep.Satisfied
			if cfg.Governor {
				if cfg.Ledger != nil {
					attests = append(attests, g.Attest(grep))
				}
				ep.ShedWidth += grep.ShedWidth
				if !grep.Satisfied {
					ep.Unsatisfied++
					cfg.Trace.DumpOnce("floor_breach")
				}
				wa := control.ShedFromRanges(c.plan, g.ShedRanges())
				if len(wa) > 0 {
					ctrlSpan.Event(trace.EvShedPublish,
						trace.Int("node", j), trace.F64("width", grep.ShedWidth))
				}
				c.ctrl.PublishShed(j, wa)
				lastShed[j] = g.ShedRanges()
				if grep.CPUAfter > grep.BudgetCPU*(1+tol)+1e-9 {
					ep.OverBudget++
				}
			} else {
				lastShed[j] = nil
				if grep.ProjectedCPU > grep.BudgetCPU*(1+tol)+1e-9 {
					ep.OverBudget++
				}
			}
		}
		if ep.OverBudget > rep.MaxOverBudget {
			rep.MaxOverBudget = ep.OverBudget
		}
		rep.TotalShedWidth += ep.ShedWidth
		cfg.Metrics.Set("scenario.shed_width", ep.ShedWidth)

		// Fetch phase through the (possibly gated, possibly faulty) wire.
		c.fetchPhase()
		for _, a := range c.agents {
			if a.down {
				continue
			}
			switch {
			case a.tally.synced:
				ep.SyncedAgents++
			case a.Usable():
				ep.StaleAgents++
				a.span.Event(trace.EvStaleGrace, trace.Int("stale", a.staleEpochs))
			default:
				ep.DarkAgents++
				a.span.Event(trace.EvWentDark, trace.Int("stale", a.staleEpochs))
			}
		}

		// Optional data plane over base share plus routed injections.
		if cfg.DataPlane {
			c.scenarioDataPhase(&ep, st.Inject, paths)
		}

		// Evasion audit: each injected session is caught when some usable
		// agent's wire manifest covers its hash point for a matching class
		// and the covering node has not shed it.
		for _, s := range st.Inject {
			caught := false
			for ci := range c.inst.Classes {
				if !c.inst.Classes[ci].Matches(s) {
					continue
				}
				ui, ok := c.inst.UnitFor(ci, s)
				if !ok {
					continue
				}
				x := c.inst.Classes[ci].HashOf(hasher, s.Tuple)
				u := c.inst.Units[ui]
				for _, node := range u.Nodes {
					a := c.agents[node]
					if !a.Usable() || !a.Decider().CoversUnit(u.Class, u.Key, x) {
						continue
					}
					if cfg.Governor && govs[node] != nil && govs[node].Covers(ui, x) {
						continue
					}
					caught = true
					break
				}
				if caught {
					break
				}
			}
			if caught {
				ep.InjectedCaught++
			} else {
				ep.InjectedEvaded++
			}
		}
		rep.TotalInjected += ep.Injected
		rep.TotalEvaded += ep.InjectedEvaded

		// Coverage audit: what the wire delivers vs what the published
		// state promises for the epoch's up set. The expectation subtracts
		// both downed nodes and their published shed; anything below it
		// means manifests and reality disagree — the breach the flight
		// recorder exists for.
		units := c.inst.Units
		ep.WorstCoverage, ep.AvgCoverage = core.ProbeCoverage(len(units), probes, func(ui int, x float64) bool {
			u := units[ui]
			for _, node := range u.Nodes {
				a := c.agents[node]
				if !a.Usable() || !a.Decider().CoversUnit(u.Class, u.Key, x) {
					continue
				}
				if cfg.Governor && govs[node] != nil && govs[node].Covers(ui, x) {
					continue
				}
				return true
			}
			return false
		})
		ep.ExpectedWorst, _ = core.ProbeCoverage(len(units), probes, func(ui int, x float64) bool {
			for _, node := range units[ui].Nodes {
				if c.agents[node].down {
					continue
				}
				if !c.plan.Manifests[node].Ranges[ui].Contains(x) {
					continue
				}
				if cfg.Governor && govs[node] != nil && govs[node].Covers(ui, x) {
					continue
				}
				return true
			}
			return false
		})
		c.epochSpan.Event(trace.EvCoverage,
			trace.F64("worst", ep.WorstCoverage), trace.F64("avg", ep.AvgCoverage),
			trace.F64("expected_worst", ep.ExpectedWorst))
		if ep.WorstCoverage < ep.ExpectedWorst-1e-9 {
			ep.Breach = true
			rep.Breaches++
			rep.FloorHeld = false
			c.epochSpan.Event(trace.EvCoverageViolation,
				trace.F64("worst", ep.WorstCoverage), trace.F64("expected", ep.ExpectedWorst))
			cfg.Trace.DumpOnce("coverage_violation")
		}

		for _, v := range cfg.Watchdog.Check(c.epochSpan, trace.EpochStats{
			WorstCoverage: ep.WorstCoverage, AvgCoverage: ep.AvgCoverage,
			ShedWidth: ep.ShedWidth, ReplanIters: ep.ReplanIters,
			DarkAgents: ep.DarkAgents, DeadlineMiss: ep.ReplanMissed,
		}) {
			ep.SLOViolations = append(ep.SLOViolations, v.String())
		}
		if len(ep.SLOViolations) > 0 {
			rep.SLOViolations += len(ep.SLOViolations)
			cfg.Trace.DumpOnce("slo_violation")
		}
		commitScenarioLedger(cfg.Ledger, c, &ep, attests)
		c.sampleFleet()

		if ep.WorstCoverage < rep.WorstCoverage {
			rep.WorstCoverage = ep.WorstCoverage
		}
		rep.AvgCoverage += ep.AvgCoverage
		rep.TotalAlerts += ep.Alerts
		rep.Epochs = append(rep.Epochs, ep)
	}
	rep.AvgCoverage /= float64(len(rep.Epochs))
	return rep, nil
}

// scenarioDataPhase drives each usable agent's engine over its base trace
// plus the epoch's injected sessions routed along their Src->Dst paths.
// Injection order is preserved per node, so the combined trace — and with
// it the engine report — is a pure function of the stimulus.
func (c *Cluster) scenarioDataPhase(ep *ScenarioEpoch, inject []traffic.Session, paths [][][]int) {
	n := len(c.agents)
	routed := make([][]traffic.Session, n)
	for _, s := range inject {
		for _, node := range paths[s.Src][s.Dst] {
			routed[node] = append(routed[node], s)
		}
	}
	nodeWorkers := parallel.Resolve(c.opts.Workers, n)
	reports := parallel.Map(nodeWorkers, n, func(j int) bro.Report {
		a := c.agents[j]
		if !a.Usable() {
			return bro.Report{Node: j}
		}
		tr := a.trace
		if len(routed[j]) > 0 {
			tr = make([]traffic.Session, 0, len(a.trace)+len(routed[j]))
			tr = append(tr, a.trace...)
			tr = append(tr, routed[j]...)
		}
		return bro.Run(bro.Config{
			Mode:    bro.ModeCoordEvent,
			Modules: c.opts.Modules,
			Decider: a.Decider(),
			Node:    j,
			Hasher:  hashing.Hasher{Key: c.opts.HashKey},
			Metrics: c.opts.Metrics,
			Trace:   a.span,
		}, tr)
	})
	for j, r := range reports {
		c.agents[j].lastEngine = r
		ep.Alerts += r.Alerts
		if r.CPUUnits > ep.MaxCPU {
			ep.MaxCPU = r.CPUUnits
		}
	}
}

// commitScenarioLedger seals one scenario epoch into the attached ledger:
// a coverage verdict whose prediction is the published expectation, plus
// the governed nodes' floor attestations. Free when no ledger is
// configured.
func commitScenarioLedger(l *ledger.Ledger, c *Cluster, ep *ScenarioEpoch, attests []governor.Attestation) {
	if l == nil {
		return
	}
	v := CoverageVerdict{
		RunEpoch:       ep.Epoch,
		CtrlEpoch:      c.ctrl.Epoch(),
		AgentEpochs:    make([]uint64, len(c.agents)),
		Synced:         ep.SyncedAgents,
		Stale:          ep.StaleAgents,
		Dark:           ep.DarkAgents,
		Worst:          ep.WorstCoverage,
		Avg:            ep.AvgCoverage,
		PredictedWorst: ep.ExpectedWorst,
		PredictedAvg:   ep.AvgCoverage,
		MaxCPU:         ep.MaxCPU,
		SLOViolations:  ep.SLOViolations,
	}
	for j, a := range c.agents {
		if a.Usable() {
			v.AgentEpochs[j] = a.Decider().Epoch()
		}
	}
	b := l.Begin(ledger.RecEpoch, c.ctrl.Epoch())
	data, err := v.Encode()
	b.Item(ledger.ItemVerdict, "coverage", data, err)
	for _, a := range attests {
		data, err := a.Encode()
		b.Item(ledger.ItemAttest, fmt.Sprintf("node/%d", a.Node), data, err)
	}
	b.Commit()
}

func containsInt(xs []int, j int) bool {
	for _, x := range xs {
		if x == j {
			return true
		}
	}
	return false
}
