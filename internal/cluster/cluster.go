// Package cluster is an in-process multi-node runtime for the paper's
// deployment architecture: one control.Controller serving sampling
// manifests over real TCP, and one agent per monitoring node that fetches
// its manifest through a (possibly fault-injected) network and drives the
// bro emulation engine over the node's share of the traffic. Layered on
// top, CoverageUnderChaos replays a seeded fault schedule — node crashes,
// controller outages, lossy links — and audits the coverage the paper's
// Section 2.5 redundancy extension actually delivers at runtime, epoch by
// epoch, against the LP's static guarantee.
//
// Reports contain only logical quantities (epochs, counts, coverage
// fractions), never wall-clock measurements, and every nondeterministic
// input is derived from one seed (see internal/chaos), so two runs with
// the same seed produce DeepEqual reports even though real sockets,
// timeouts, and goroutine scheduling are involved.
package cluster

import (
	"fmt"
	"net"

	"nwdeploy/internal/bro"
	"nwdeploy/internal/chaos"
	"nwdeploy/internal/control"
	"nwdeploy/internal/core"
	"nwdeploy/internal/ledger"
	"nwdeploy/internal/obs"
	"nwdeploy/internal/parallel"
	"nwdeploy/internal/telemetry"
	"nwdeploy/internal/topology"
	"nwdeploy/internal/trace"
	"nwdeploy/internal/traffic"
)

// Options configures a Cluster. Topo, Modules, and Sessions are required;
// zero values elsewhere select the documented defaults.
type Options struct {
	Topo     *topology.Topology
	Modules  []bro.ModuleSpec
	Sessions []traffic.Session
	// Caps are per-node capacities (nil selects uniform 1e9/1e12, the
	// unconstrained setting the emulation uses).
	Caps []core.NodeResources
	// Redundancy is the Section 2.5 coverage level r (0 selects 1). A
	// plan solved with redundancy r keeps full coverage under any r-1
	// concurrent node failures.
	Redundancy int
	// HashKey keys the deployment's packet-selection hash (0 selects 7).
	HashKey uint32
	// Seed drives every chaos decision: per-agent connection faults and
	// backoff jitter all derive from it via seed splitting.
	Seed int64
	// Faults is the per-connection fault mix injected into every agent's
	// dials (zero = clean network).
	Faults chaos.NetworkFaults
	// Retry shapes the agents' fetch loops.
	Retry RetryPolicy
	// Agent sets the agents' timeouts/metrics; its Dial, if any, becomes
	// the real dial behind the fault injector.
	Agent control.AgentOptions
	// Deltas switches agent syncs to protocol-v2 delta subscriptions (one
	// exchange per sync instead of the legacy epoch-probe-then-fetch
	// pair); Encoding selects the response encoding for them. Both default
	// off/JSON: a delta sync consumes one fault-stream draw per attempt
	// where the legacy pair consumes two, so flipping the knob changes
	// which faults a seeded chaos schedule lands on (reports remain
	// deterministic for a given knob setting — see the cross-encoding
	// determinism tests).
	Deltas   bool
	Encoding control.Encoding
	// StaleGrace is how many consecutive failed-sync epochs an agent may
	// keep enforcing its last manifest before going dark.
	StaleGrace int
	// Workers sizes the runtime's worker pools (0 = GOMAXPROCS, 1 =
	// serial). Reports are identical for any value.
	Workers int
	// Probes is the per-unit probe count for coverage audits (0 selects
	// 2000; use 10000 to match core.CoverageUnderFailure exactly).
	Probes int
	// CaptureBasis asks the initial placement solve to export its simplex
	// basis (core.Plan.Basis), so later replans can warm-start from it —
	// required by the overload runtime's drift-triggered replanning.
	CaptureBasis bool
	// Metrics, when non-nil, receives runtime observability (fetch
	// attempt/retry/failure/timeout counters, staleness and coverage
	// gauges, per-agent assigned width) in addition to the controller,
	// agent, and engine metrics of the wrapped layers. Write-only:
	// reports are identical with or without it.
	Metrics *obs.Registry
	// Trace, when non-nil, receives the causal event log: epoch spans,
	// per-agent fetch/crash/staleness events, engine runs, governor
	// decisions, and coverage audits, with trace context propagated over
	// the controller wire. Write-only like Metrics: reports are identical
	// with or without it, and byte-identical across Workers values.
	Trace *trace.Tracer
	// Watchdog, when non-nil, evaluates every epoch against its SLO and
	// records the breached rules in the epoch report (and, when Trace is
	// live, as slo_violation events). Nil disables SLO checking.
	Watchdog *trace.Watchdog
	// Ledger, when non-nil, receives the tamper-evident audit chain: the
	// controller commits every publish (full canonical manifest set plus
	// shed state) and the runtime commits a coverage verdict per epoch.
	// Write-only like Metrics and Trace: reports are DeepEqual with or
	// without it, and same-seed chains are byte-identical across Workers
	// values and across processes.
	Ledger *ledger.Ledger
	// Fleet, when non-nil, turns on the fleet telemetry plane (fleet.go):
	// each agent's end-of-epoch NodeStats ride its next wire exchange into
	// the controller, and the runtime closes one FleetSnapshot per epoch.
	// Write-only, and identical (wall-clock field aside) across Workers
	// values. FleetHistory, when also non-nil, retains the per-epoch
	// snapshots in a fixed-capacity ring.
	Fleet        *telemetry.Fleet
	FleetHistory *telemetry.History
}

// EpochReport is one chaos epoch's outcome: the control-plane weather, what
// the agents managed to fetch, what the engines analyzed, and the achieved
// coverage versus the plan's static prediction — the ScenarioEpoch fields
// of the same names (ControllerDown is its CtrlDown).
type EpochReport struct {
	Epoch                                       int
	ControllerEpoch                             uint64
	ControllerDown                              bool
	DownNodes                                   []int
	AgentEpochs                                 []uint64
	SyncedAgents, StaleAgents, DarkAgents       int
	FetchAttempts, FetchFailures, FetchTimeouts int
	Alerts                                      int
	MaxCPU                                      float64
	// Achieved coverage over the usable agents' wire manifests, and the
	// plan's static prediction for the same failure set (ScenarioEpoch's
	// ExpectedWorst/ExpectedAvg: with nothing shed, the expectation is the
	// plan's residual coverage).
	WorstCoverage, AvgCoverage   float64
	PredictedWorst, PredictedAvg float64
	SLOViolations                []string
}

// Cluster is a running deployment: controller, gate, and agents.
type Cluster struct {
	opts   Options
	inst   *core.Instance
	plan   *core.Plan
	ctrl   *control.Controller
	gate   *chaos.Gate
	agents []*NodeAgent
	paths  [][][]int // the topology's path matrix, for routing injections
	epoch  int
	// dyn is the volume-driven half of the epoch loop (drift, replan,
	// govern); nil models static plan-mean traffic.
	dyn *dynamics
	// epochSpan is the current epoch's root trace span (zero when
	// untraced); agents derive their per-epoch child spans from it.
	epochSpan trace.Span

	fetchAttemptC, fetchRetryC, fetchFailureC, fetchTimeoutC, epochC *obs.Counter
	staleG, darkG, covWorstG, covAvgG                                *obs.Gauge
	widthG                                                           []*obs.Gauge // per agent
}

// New solves the placement for the given scenario, starts a controller on
// a loopback port behind a chaos gate, installs the plan (epoch 1), and
// builds one fault-injected agent per node with its coordinated-deployment
// traffic share. Call Close when done.
func New(opts Options) (*Cluster, error) {
	for _, m := range opts.Modules {
		if m.Name == "baseline" {
			return nil, fmt.Errorf("cluster: baseline pseudo-module cannot be deployed")
		}
	}
	if opts.Redundancy <= 0 {
		opts.Redundancy = 1
	}
	if opts.HashKey == 0 {
		opts.HashKey = 7
	}
	if opts.Probes <= 0 {
		opts.Probes = 2000
	}
	n := opts.Topo.N()
	caps := opts.Caps
	if caps == nil {
		caps = core.UniformCaps(n, 1e9, 1e12)
	}
	inst, err := core.BuildInstance(opts.Topo, bro.Classes(opts.Modules), opts.Sessions, caps)
	if err != nil {
		return nil, err
	}
	plan, err := core.SolveOpts(inst, core.SolveOptions{
		Redundancy: opts.Redundancy, Metrics: opts.Metrics, CaptureBasis: opts.CaptureBasis,
	})
	if err != nil {
		return nil, err
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("cluster: listen: %w", err)
	}
	gate := chaos.NewGate(ln)
	ctrl, err := control.NewControllerOpts("", control.ControllerOptions{
		HashKey: opts.HashKey, Metrics: opts.Metrics, Listener: gate,
		Ledger: opts.Ledger, Fleet: opts.Fleet,
	})
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		opts: opts, inst: inst, plan: plan, ctrl: ctrl, gate: gate,
		paths: opts.Topo.PathMatrix(),

		fetchAttemptC: opts.Metrics.Counter("cluster.fetch_attempts"),
		fetchRetryC:   opts.Metrics.Counter("cluster.fetch_retries"),
		fetchFailureC: opts.Metrics.Counter("cluster.fetch_failures"),
		fetchTimeoutC: opts.Metrics.Counter("cluster.fetch_timeouts"),
		epochC:        opts.Metrics.Counter("cluster.epochs"),
		staleG:        opts.Metrics.Gauge("cluster.stale_agents"),
		darkG:         opts.Metrics.Gauge("cluster.dark_agents"),
		covWorstG:     opts.Metrics.Gauge("cluster.coverage_worst"),
		covAvgG:       opts.Metrics.Gauge("cluster.coverage_avg"),
	}

	// The initial publish runs under the setup trace (epoch 0), so the
	// first manifests agents fetch already carry wire context.
	c.publish(0, plan)

	// Per-agent fault streams and jitter seeds split off the one run seed;
	// stream ids are node ids, so an agent's fault history is independent
	// of every other agent's activity.
	injector := chaos.NewInjector(parallel.SplitSeed(opts.Seed, 1), opts.Faults)
	for j := 0; j < n; j++ {
		agentOpts := opts.Agent
		agentOpts.Metrics = opts.Metrics
		dialer := &chaos.Dialer{Stream: injector.Stream(j), Next: chaos.DialFunc(opts.Agent.Dial)}
		agentOpts.Dial = dialer.Dial
		c.agents = append(c.agents, newNodeAgent(
			j, ctrl.Addr(), agentOpts,
			control.SubscribeOptions{Deltas: opts.Deltas, Encoding: opts.Encoding},
			opts.Retry, opts.StaleGrace,
			parallel.SplitSeed(opts.Seed, int64(1000+j)), nodeTrace(c.paths, opts.Sessions, j),
		))
		c.widthG = append(c.widthG, opts.Metrics.Gauge(fmt.Sprintf("cluster.agent_width.%d", j)))
	}
	if opts.Fleet != nil {
		// Bootstrap reports: each agent announces itself on its first
		// exchange, before any end-of-epoch collection has run, so the
		// first snapshot classifies synced nodes healthy rather than dark.
		for _, a := range c.agents {
			a.lastStats = telemetry.NodeStats{Node: a.node}
			s := a.lastStats
			a.agent.SetStats(&s)
		}
	}
	return c, nil
}

// nodeTrace extracts node j's coordinated-deployment traffic share:
// sessions originating, terminating, or transiting at j (mirroring
// bro.Emulation's per-node traces).
func nodeTrace(paths [][][]int, sessions []traffic.Session, j int) []traffic.Session {
	var out []traffic.Session
	for _, s := range sessions {
		for _, n := range paths[s.Src][s.Dst] {
			if n == j {
				out = append(out, s)
				break
			}
		}
	}
	return out
}

// publish installs a plan as a new configuration generation, recording a
// publish event on the controller component of the given runtime epoch's
// trace and stamping the publish span on served manifests — the wire half
// of the epoch stitch. With a nil tracer it degrades to a plain UpdatePlan.
// The ledger (nil-safe) is stamped with the runtime epoch first, so the
// publish record the controller commits carries it.
func (c *Cluster) publish(epoch int, plan *core.Plan) {
	c.opts.Ledger.SetRun(epoch)
	pub := c.opts.Trace.Epoch(epoch).Child("controller", -1)
	if pub.Live() {
		pub.Event(trace.EvPublish, trace.F64("objective", plan.Objective),
			trace.Uint64("ctrl_epoch", c.ctrl.Epoch()+1))
		c.ctrl.SetTrace(&control.WireTrace{Trace: pub.TraceHex(), Span: pub.SpanHex()})
	}
	c.ctrl.UpdatePlan(plan)
}

// Close shuts the controller (and its gate/listener) down.
func (c *Cluster) Close() error { return c.ctrl.Close() }

// BumpEpoch re-stamps the current plan as a new configuration generation —
// the operations center's periodic re-optimization round (the workload is
// unchanged here, so the plan content is too, but agents must re-fetch).
// The publish is recorded under the trace of the epoch about to run, so
// the fetches it triggers stitch to it.
func (c *Cluster) BumpEpoch() { c.publish(c.epoch+1, c.plan) }

// Converge runs one fault-free fetch phase (all agents up, gate forced
// open) and reports how many agents hold a current manifest afterwards —
// the cluster-formation step, and the benchmark's unit of work.
func (c *Cluster) Converge() int {
	c.gate.SetOpen(true)
	c.fetchPhase()
	synced := 0
	for _, a := range c.agents {
		if a.tally.synced {
			synced++
		}
	}
	return synced
}

// fetchPhase runs every up agent's retry loop concurrently. Each agent
// mutates only its own state and draws only its own fault stream, so the
// phase's outcome is schedule-independent.
func (c *Cluster) fetchPhase() {
	n := len(c.agents)
	parallel.ForEach(parallel.Resolve(c.opts.Workers, n), n, func(j int) {
		a := c.agents[j]
		a.tally = epochTally{}
		// The agent's per-epoch span is a pure function of the epoch root
		// and the node id, so deriving it inside the worker is
		// deterministic; each agent emits only into its own component.
		a.span = c.epochSpan.Child("agent", j)
		if a.down {
			return
		}
		a.syncWithRetry()
	})
}

// RunEpoch advances the cluster one chaos epoch: applies the epoch's
// faults (crashing agents lose their manifests; a down controller drops
// every exchange), runs the fetch phase, drives each usable agent's
// engine over its traffic share, and audits achieved coverage against the
// plan's static prediction for the same failure set. It is one turn of the
// epoch loop (epoch.go) under a faults-only stimulus.
func (c *Cluster) RunEpoch(f chaos.EpochFaults) EpochReport {
	eps, err := c.run(func(*ScenarioEnv) (Stimulus, []float64) { return Stimulus{Faults: f}, nil }, 1)
	if err != nil {
		panic(err) // only a volume phase can fail, and faults give it nothing to reject
	}
	return chaosEpoch(eps[0])
}

// chaosEpoch projects the loop's epoch record into the chaos report's
// shape.
func chaosEpoch(ep ScenarioEpoch) EpochReport {
	return EpochReport{
		Epoch:           ep.Epoch,
		ControllerEpoch: ep.ControllerEpoch,
		ControllerDown:  ep.CtrlDown,
		DownNodes:       ep.DownNodes,
		AgentEpochs:     ep.AgentEpochs,
		SyncedAgents:    ep.SyncedAgents,
		StaleAgents:     ep.StaleAgents,
		DarkAgents:      ep.DarkAgents,
		FetchAttempts:   ep.FetchAttempts,
		FetchFailures:   ep.FetchFailures,
		FetchTimeouts:   ep.FetchTimeouts,
		Alerts:          ep.Alerts,
		MaxCPU:          ep.MaxCPU,
		WorstCoverage:   ep.WorstCoverage,
		AvgCoverage:     ep.AvgCoverage,
		PredictedWorst:  ep.ExpectedWorst,
		PredictedAvg:    ep.ExpectedAvg,
		SLOViolations:   ep.SLOViolations,
	}
}
