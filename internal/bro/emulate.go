package bro

import (
	"fmt"

	"nwdeploy/internal/control"
	"nwdeploy/internal/core"
	"nwdeploy/internal/hashing"
	"nwdeploy/internal/obs"
	"nwdeploy/internal/parallel"
	"nwdeploy/internal/topology"
	"nwdeploy/internal/traffic"
)

// Deployment selects the network-wide deployment strategy being emulated.
type Deployment int

const (
	// DeployEdge is the paper's single-vantage-point baseline: "each
	// location independently runs a Bro instance on the traffic it sees",
	// namely traffic originating or terminating at that location, with no
	// coordination.
	DeployEdge Deployment = iota
	// DeployCoordinated is the network-wide coordinated deployment: each
	// node additionally observes transit traffic and analyzes exactly the
	// manifest-assigned share of each coordination unit.
	DeployCoordinated
)

// String names the deployment.
func (d Deployment) String() string {
	if d == DeployEdge {
		return "edge"
	}
	return "coordinated"
}

// EmulationResult aggregates per-node reports of one network-wide run.
type EmulationResult struct {
	Deployment Deployment
	Reports    []Report // indexed by node ID
}

// MaxCPU returns the maximum per-node CPU footprint, the paper's headline
// metric for Figures 6(b), 7(b).
func (r *EmulationResult) MaxCPU() float64 {
	var m float64
	for _, rep := range r.Reports {
		if rep.CPUUnits > m {
			m = rep.CPUUnits
		}
	}
	return m
}

// MaxMem returns the maximum per-node memory footprint (Figures 6(a), 7(a)).
func (r *EmulationResult) MaxMem() float64 {
	var m float64
	for _, rep := range r.Reports {
		if rep.MemBytes > m {
			m = rep.MemBytes
		}
	}
	return m
}

// TotalAlerts sums alerts across nodes: the functional output used to
// verify the deployments are behaviorally equivalent in aggregate.
func (r *EmulationResult) TotalAlerts() int {
	var n int
	for _, rep := range r.Reports {
		n += rep.Alerts
	}
	return n
}

// Emulation is a prepared network-wide scenario: topology, traffic,
// modules, and (for the coordinated deployment) the solved plan with each
// node's decider built from its wire manifest.
type Emulation struct {
	Topo     *topology.Topology
	Modules  []ModuleSpec
	Sessions []traffic.Session
	Plan     *core.Plan
	// Hasher is the deployment's keyed selection hash; NewEmulation keys
	// every node's manifest with it.
	Hasher hashing.Hasher
	// Workers fans the per-node engine runs out across a worker pool: 0
	// selects GOMAXPROCS, 1 runs the nodes one after another. Node runs are
	// fully independent (each node sees its own trace and keeps its own
	// serial engine), so the result is byte-identical for every worker
	// count.
	Workers int
	// Metrics, when non-nil, is forwarded to every per-node engine run
	// and additionally times the whole emulation. Results are
	// byte-identical with or without it (nil is the no-op default).
	Metrics *obs.Registry

	paths    [][][]int
	deciders []*control.Decider // per node, from Plan's manifests keyed by Hasher
}

// NewEmulation builds the scenario, solves the placement LP for the
// coordinated deployment and builds each node's decider from its wire
// manifest, as a deployed agent does. Modules must not include the
// baseline pseudo-module (connection processing is inherent to the
// engine).
func NewEmulation(topo *topology.Topology, modules []ModuleSpec, sessions []traffic.Session, caps []core.NodeResources) (*Emulation, error) {
	for _, m := range modules {
		if m.Name == "baseline" {
			return nil, fmt.Errorf("bro: baseline pseudo-module cannot be deployed network-wide")
		}
	}
	inst, err := core.BuildInstance(topo, Classes(modules), sessions, caps)
	if err != nil {
		return nil, err
	}
	plan, err := core.Solve(inst, 1)
	if err != nil {
		return nil, err
	}
	e := &Emulation{
		Topo:     topo,
		Modules:  modules,
		Sessions: sessions,
		Plan:     plan,
		Hasher:   hashing.Hasher{Key: 7},
		paths:    topo.PathMatrix(),
	}
	for j := 0; j < topo.N(); j++ {
		m, err := control.ManifestFromPlan(plan, j, 1, e.Hasher.Key)
		if err != nil {
			return nil, err
		}
		e.deciders = append(e.deciders, control.NewDecider(m))
	}
	return e, nil
}

// nodeTrace extracts the sessions node j observes under a deployment:
// origin/terminating traffic for the edge deployment, plus transit traffic
// for the coordinated one ("for the coordinated case, this includes both
// traffic originating/terminating at a node and transit traffic").
func (e *Emulation) nodeTrace(j int, d Deployment) []traffic.Session {
	if d == DeployCoordinated {
		return NodeTrace(e.paths, e.Sessions, j)
	}
	var out []traffic.Session
	for _, s := range e.Sessions {
		if s.Src == j || s.Dst == j {
			out = append(out, s)
		}
	}
	return out
}

// NodeTrace returns node j's coordinated-deployment traffic share: the
// sessions whose Src->Dst path (paths, a topology's PathMatrix) originates,
// terminates or transits at j, in trace order.
func NodeTrace(paths [][][]int, sessions []traffic.Session, j int) []traffic.Session {
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

// Run emulates the deployment: per node, the node's trace is fed through an
// engine configured for that deployment, exactly as the paper generates
// per-node traces from a network-wide trace and runs Bro on each in
// pseudo-realtime mode.
func (e *Emulation) Run(d Deployment) *EmulationResult {
	return e.RunFineGrained(d, false)
}

// RunFineGrained is Run with the Section 2.5 fine-grained coordination
// extension toggled: first-packet-only modules are served from first-packet
// events, eliminating duplicated connection tracking on nodes that analyze
// nothing else for a session. Only meaningful for the coordinated
// deployment.
func (e *Emulation) RunFineGrained(d Deployment, fineGrained bool) *EmulationResult {
	sp := e.Metrics.StartSpan("bro.emulation_ns")
	defer sp.End()
	res := &EmulationResult{Deployment: d}
	n := e.Topo.N()
	res.Reports = parallel.Map(parallel.Resolve(e.Workers, n), n, func(j int) Report {
		trace := e.nodeTrace(j, d)
		var cfg Config
		switch d {
		case DeployEdge:
			cfg = Config{Mode: ModePlain, Modules: e.Modules, Hasher: e.Hasher}
		case DeployCoordinated:
			cfg = Config{
				Mode: ModeCoordEvent, Modules: e.Modules, Decider: e.deciders[j],
				Hasher: e.Hasher, FineGrained: fineGrained,
			}
		}
		cfg.Node = j
		cfg.Metrics = e.Metrics
		return Run(cfg, trace)
	})
	return res
}
