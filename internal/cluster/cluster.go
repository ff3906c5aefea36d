// Package cluster is an in-process multi-node runtime for the paper's
// deployment architecture: one control.Controller serving sampling
// manifests over real TCP, and one agent per monitoring node that fetches
// its manifest through a (possibly fault-injected) network and drives the
// bro emulation engine over the node's share of the traffic. RunScenario
// is the one entry point: a ScenarioDriver decides each epoch's
// environment, and the epoch loop (epoch.go) runs the operations centre's
// cycle under it. ChaosDriver replays a seeded fault schedule — node
// crashes, controller outages, periodic re-optimization — to audit the
// coverage the paper's Section 2.5 redundancy extension delivers at
// runtime against the LP's static guarantee; BurstDriver drives bursty
// traffic into the load governors and drift-triggered replanning.
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
	"nwdeploy/internal/governor"
	"nwdeploy/internal/hashing"
	"nwdeploy/internal/obs"
	"nwdeploy/internal/parallel"
	"nwdeploy/internal/telemetry"
	"nwdeploy/internal/trace"
	"nwdeploy/internal/traffic"
)

// hashKey keys the deployment's packet-selection hash.
const hashKey = 7

// Cluster is a running deployment: controller, gate, agents, and the
// volume-driven state the epoch loop carries between epochs.
type Cluster struct {
	// cfg is the defaulted run configuration.
	cfg    ScenarioConfig
	inst   *core.Instance
	plan   *core.Plan
	ctrl   *control.Controller
	gate   *chaos.Gate
	agents []*NodeAgent
	paths  [][][]int // the topology's path matrix, for routing injections
	epoch  int
	// epochSpan is the current epoch's root trace span (zero when
	// untraced); agents derive their per-epoch child spans from it.
	epochSpan trace.Span
	// usable is the coverage audit's per-node snapshot of this epoch's
	// deciders (nil for a node not usable); own is reused scratch for one
	// node's enforced ranges of one unit.
	usable []*control.Decider
	own    hashing.RangeSet

	scaler unitScales
	// origPkts/origItems are the volumes the first plan was solved against:
	// drivers scale the *original* workload, while the detector and the
	// governors compare against the *current* plan's, which move when a
	// replan lands.
	origPkts, origItems []float64
	detector            *DriftDetector
	govs                []*governor.Governor
	// floor holds each node's copy-0 slices of the current plan: the r = 1
	// floor the governors' local reasoning assumes is enforced.
	floor [][]core.ManifestSlice
	// lastShed is the shed state the governors published: this epoch's
	// coverage audit subtracts it, and the next epoch's driver sees it.
	// Entries stay nil while the governors only project.
	lastShed []map[int]hashing.RangeSet

	fetchAttemptC, fetchRetryC, fetchFailureC, fetchTimeoutC, epochC *obs.Counter
	staleG, darkG, covWorstG, covAvgG                                *obs.Gauge
	widthG                                                           []*obs.Gauge // per agent
}

// newCluster generates the workload an already-defaulted cfg describes,
// solves the placement, starts a controller on a loopback port behind a
// chaos gate, installs the plan (epoch 1), builds one fault-injected agent
// per node with its coordinated-deployment traffic share, and sets up the
// drift detector and one governor per node. Call Close when done.
func newCluster(cfg ScenarioConfig) (*Cluster, error) {
	for _, m := range cfg.Modules {
		if m.Name == "baseline" {
			return nil, fmt.Errorf("cluster: baseline pseudo-module cannot be deployed")
		}
	}
	sessions := traffic.Generate(cfg.Topo, traffic.Gravity(cfg.Topo), traffic.GenConfig{
		Sessions: cfg.Sessions, Seed: cfg.TrafficSeed,
	})
	// Every node gets uniform 1e9/1e12 capacity, the unconstrained setting
	// the emulation uses.
	n := cfg.Topo.N()
	inst, err := core.BuildInstance(cfg.Topo, bro.Classes(cfg.Modules), sessions, core.UniformCaps(n, 1e9, 1e12))
	if err != nil {
		return nil, err
	}
	// A warm replan starts from the previous plan's basis, so the initial
	// solve exports one.
	plan, err := core.SolveOpts(inst, core.SolveOptions{
		Redundancy: cfg.Redundancy, Metrics: cfg.Metrics, CaptureBasis: cfg.Replan && cfg.WarmReplan,
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
		HashKey: hashKey, Metrics: cfg.Metrics, Listener: gate,
		Ledger: cfg.Ledger, Fleet: cfg.Fleet,
	})
	if err != nil {
		return nil, err
	}
	pv := traffic.Volumes(cfg.Topo, traffic.Gravity(cfg.Topo), 0)
	c := &Cluster{
		cfg: cfg, inst: inst, plan: plan, ctrl: ctrl, gate: gate,
		paths: cfg.Topo.PathMatrix(), usable: make([]*control.Decider, n),

		scaler:    newUnitScales(inst, pv),
		origPkts:  make([]float64, len(inst.Units)),
		origItems: make([]float64, len(inst.Units)),
		govs:      make([]*governor.Governor, n),
		lastShed:  make([]map[int]hashing.RangeSet, n),

		fetchAttemptC: cfg.Metrics.Counter("cluster.fetch_attempts"),
		fetchRetryC:   cfg.Metrics.Counter("cluster.fetch_retries"),
		fetchFailureC: cfg.Metrics.Counter("cluster.fetch_failures"),
		fetchTimeoutC: cfg.Metrics.Counter("cluster.fetch_timeouts"),
		epochC:        cfg.Metrics.Counter("cluster.epochs"),
		staleG:        cfg.Metrics.Gauge("cluster.stale_agents"),
		darkG:         cfg.Metrics.Gauge("cluster.dark_agents"),
		covWorstG:     cfg.Metrics.Gauge("cluster.coverage_worst"),
		covAvgG:       cfg.Metrics.Gauge("cluster.coverage_avg"),
	}
	for ui, u := range inst.Units {
		c.origPkts[ui] = u.Pkts
		c.origItems[ui] = u.Items
	}
	c.detector = NewDriftDetector(c.origPkts, cfg.EWMAAlpha, cfg.ReplanThreshold)

	// The initial publish runs under the setup trace (epoch 0), so the
	// first manifests agents fetch already carry wire context.
	c.publish(0, plan)

	// Per-agent fault streams and jitter seeds split off the one run seed;
	// stream ids are node ids, so an agent's fault history is independent
	// of every other agent's activity.
	injector := chaos.NewInjector(parallel.SplitSeed(cfg.Seed, 1), cfg.Faults)
	for j := 0; j < n; j++ {
		agentOpts := cfg.Agent
		agentOpts.Metrics = cfg.Metrics
		dialer := &chaos.Dialer{Stream: injector.Stream(j), Next: chaos.DialFunc(cfg.Agent.Dial)}
		agentOpts.Dial = dialer.Dial
		c.agents = append(c.agents, newNodeAgent(
			j, ctrl.Addr(), agentOpts,
			control.SubscribeOptions{Deltas: cfg.Deltas, Encoding: cfg.Encoding},
			cfg.Retry, cfg.StaleGrace,
			parallel.SplitSeed(cfg.Seed, int64(1000+j)), bro.NodeTrace(c.paths, sessions, j),
		))
		c.widthG = append(c.widthG, cfg.Metrics.Gauge(fmt.Sprintf("cluster.agent_width.%d", j)))
	}
	if cfg.Fleet != nil {
		// Bootstrap reports: each agent announces itself on its first
		// exchange, before any end-of-epoch collection has run, so the
		// first snapshot classifies synced nodes healthy rather than dark.
		for _, a := range c.agents {
			a.lastStats = telemetry.NodeStats{Node: a.node}
			s := a.lastStats
			a.agent.SetStats(&s)
		}
	}
	if err := c.buildGovernors(); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// publish installs a plan as a new configuration generation, recording a
// publish event on the controller component of the given runtime epoch's
// trace and stamping the publish span on served manifests — the wire half
// of the epoch stitch. With a nil tracer it degrades to a plain UpdatePlan.
// The ledger (nil-safe) is stamped with the runtime epoch first, so the
// publish record the controller commits carries it.
func (c *Cluster) publish(epoch int, plan *core.Plan) {
	c.cfg.Ledger.SetRun(epoch)
	pub := c.cfg.Trace.Epoch(epoch).Child("controller", -1)
	if pub.Live() {
		pub.Event(trace.EvPublish, trace.F64("objective", plan.Objective),
			trace.Uint64("ctrl_epoch", c.ctrl.Epoch()+1))
		c.ctrl.SetTrace(&control.WireTrace{Trace: pub.TraceHex(), Span: pub.SpanHex()})
	}
	c.ctrl.UpdatePlan(plan)
}

// Close releases the agents' held connections and shuts the controller
// (and its gate/listener) down.
func (c *Cluster) Close() error {
	for _, a := range c.agents {
		_ = a.agent.Close()
	}
	return c.ctrl.Close()
}

// fetchPhase runs every up agent's retry loop concurrently. Each agent
// mutates only its own state and draws only its own fault stream, so the
// phase's outcome is schedule-independent.
func (c *Cluster) fetchPhase() {
	n := len(c.agents)
	parallel.ForEach(parallel.Resolve(c.cfg.Workers, n), n, func(j int) {
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
