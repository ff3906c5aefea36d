package main

// surface.go is the benchmark's whole import surface: every call into the
// repo's packages goes through this file, so a refactor of the program
// under test touches the benchmark here and nowhere else. The workloads
// and probes elsewhere in cmd/perf see only the aliases and functions
// below. README.md lists the surface; it deliberately avoids what the
// roadmap's runtime refactor deletes or folds (Sync/SyncIfStale/Watch,
// BaselineDecider, cluster.Hierarchy, RunOverload, CoverageUnderChaos).

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"nwdeploy/internal/bro"
	"nwdeploy/internal/cluster"
	"nwdeploy/internal/conntrack"
	"nwdeploy/internal/control"
	"nwdeploy/internal/core"
	"nwdeploy/internal/experiments"
	"nwdeploy/internal/hashing"
	"nwdeploy/internal/ledger"
	"nwdeploy/internal/nips"
	"nwdeploy/internal/obs"
	"nwdeploy/internal/packet"
	"nwdeploy/internal/telemetry"
	"nwdeploy/internal/topology"
	"nwdeploy/internal/trace"
	"nwdeploy/internal/traffic"
)

type (
	session    = traffic.Session
	fiveTuple  = hashing.FiveTuple
	topo       = topology.Topology
	moduleSpec = bro.ModuleSpec
	engReport  = bro.Report
	instance   = core.Instance
	plan       = core.Plan
	manifest   = control.Manifest
	wireDelta  = control.WireDelta // an opaque delta between two manifest generations
	decider    = control.Decider
	registry   = obs.Registry
	nipsInst   = nips.Instance
	controller = control.Controller
	agent      = control.Agent
)

// hashKey keys every deployment's packet-selection hash. It is part of the
// published configuration, not of the workload, so it is a constant.
const hashKey = 7

// ---- topologies, traffic, modules -----------------------------------------

func internet2() *topo { return topology.Internet2() }
func geant() *topo     { return topology.Geant() }
func fiftyNode() *topo { return topology.FiftyNode() }

// synthTopo is the 1000-PoP stand-in the distribute workload addresses its
// agents by; only its node count matters there (the plan is synthetic).
func synthTopo(pops int) *topo {
	cores := pops / 40
	if cores < 3 {
		cores = 3
	}
	return topology.RocketfuelLike(topology.RocketfuelSpec{
		ASN: 64512, Name: "Synth", PoPs: pops, Cores: cores, Seed: 424242,
	})
}

// gravityTrace draws n sessions from the topology's gravity matrix, keeping
// only the topPairs heaviest pairs when topPairs > 0.
func gravityTrace(t *topo, n, topPairs int, seed int64) []session {
	m := traffic.Gravity(t)
	if topPairs > 0 {
		kept := make(traffic.Matrix, len(m))
		for a := range kept {
			kept[a] = make([]float64, len(m[a]))
		}
		for _, p := range m.TopPairs(topPairs) {
			kept[p[0]][p[1]] = m[p[0]][p[1]]
		}
		m = kept
	}
	return traffic.Generate(t, m, traffic.GenConfig{Sessions: n, Seed: seed})
}

// nodeShare filters the sessions node j observes (origin, terminus or
// transit), in trace order.
func nodeShare(t *topo, sessions []session, j int) []session {
	paths := t.PathMatrix()
	var out []session
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

// standardModules are the paper's eight analysis modules (Figure 5 minus
// the baseline pseudo-module); scaledModules(n) is the Figure 6 duplicate
// sweep at n modules, again without the baseline.
func standardModules() []moduleSpec              { return bro.StandardModules()[1:] }
func scaledModules(n int) []moduleSpec           { return bro.WithDuplicates(n)[1:] }
func moduleName(m moduleSpec) string             { return m.Name }
func moduleMatches(m moduleSpec, s session) bool { return m.MatchesSession(s) }

// clusterModules mirrors the scenario runtime's default module set, so the
// benchmark can re-derive the plan the cluster deploys.
func clusterModules() []moduleSpec {
	var out []moduleSpec
	for _, m := range standardModules() {
		if m.Scope == core.PerPath {
			out = append(out, m)
		}
	}
	return out
}

// ---- plan: instance build and LP solve -------------------------------------

func buildInstance(t *topo, modules []moduleSpec, sessions []session) (*instance, error) {
	return core.BuildInstance(t, bro.Classes(modules), sessions, core.UniformCaps(t.N(), 1e9, 1e12))
}

// jitterVolumes returns a same-shaped instance whose per-unit volumes are
// scaled by independent factors in [1-amp, 1+amp) drawn from rng.
func jitterVolumes(inst *instance, amp float64, rng *rand.Rand) (*instance, error) {
	pkts := make([]float64, len(inst.Units))
	items := make([]float64, len(inst.Units))
	for ui, u := range inst.Units {
		f := 1 + amp*(2*rng.Float64()-1)
		pkts[ui] = u.Pkts * f
		items[ui] = u.Items * f
	}
	return inst.WithVolumes(pkts, items)
}

// lpShape is the placement LP's size as formulated (before presolve): one
// coverage row per unit plus a CPU and a memory row per loaded node; one
// column per (unit, eligible node) plus lambda.
func lpShape(inst *instance) (rows, cols int) {
	loaded := make(map[int]bool)
	cols = 1
	for _, u := range inst.Units {
		cols += len(u.Nodes)
		for _, n := range u.Nodes {
			loaded[n] = true
		}
	}
	return len(inst.Units) + 2*len(loaded), cols
}

type solveMode int

const (
	solveCold    solveMode = iota // presolve on, no basis: the replan default
	solveCapture                  // cold, exporting the basis for warm starts
)

// solveNIDS runs the placement LP. A non-nil warm plan's basis warm-starts
// the solve (and implies capture). reg, when non-nil, receives the solver's
// own counters and spans.
func solveNIDS(inst *instance, r int, mode solveMode, warm *plan, reg *registry) (*plan, error) {
	opts := core.SolveOptions{Redundancy: r, Metrics: reg, CaptureBasis: mode == solveCapture}
	if warm != nil {
		opts.WarmBasis = warm.Basis
	}
	return core.SolveOpts(inst, opts)
}

// planCovers reports whether the plan has a coordination unit for the
// session under the class, i.e. whether the traffic report it was solved
// from saw that (class, path) at all.
func planCovers(p *plan, class int, s session) bool {
	_, ok := p.Inst.UnitFor(class, s)
	return ok
}

func planObjective(p *plan) float64 { return p.Objective }
func planPivots(p *plan) int        { return p.Stats.Phase1Iters + p.Stats.Phase2Iters }
func planNodes(p *plan) int         { return len(p.Manifests) }

// ---- publish: manifest build, canonical form, diff, encode, apply ----------

func manifestFromPlan(p *plan, node int, epoch uint64) (*manifest, error) {
	return control.ManifestFromPlan(p, node, epoch, hashKey)
}
func canonicalManifest(m *manifest) ([]byte, error) { return control.CanonicalManifest(m) }
func encodeManifest(m *manifest) []byte             { return control.AppendManifestBinary(nil, m) }
func newDecider(m *manifest) *decider               { return control.NewDecider(m) }

func diffManifests(old, cur *manifest) (*wireDelta, bool)        { return control.DiffManifests(old, cur) }
func encodeDelta(dst []byte, d *wireDelta) []byte                { return control.AppendDeltaBinary(dst, d) }
func applyDelta(base *manifest, d *wireDelta) (*manifest, error) { return control.ApplyDelta(base, d) }

// manifestTiles reports, for every (class, unit) the manifests publish,
// whether the nodes' ranges tile the hash space to depth exactly r: every
// segment between published boundaries is covered by exactly r nodes and no
// node covers a point twice. It returns the units checked and those failing.
func manifestTiles(ms []*manifest, r int) (checked, bad int) {
	type key struct {
		class int
		unit  [2]int
	}
	per := make(map[key][][]control.WireRange) // per unit, one range list per node
	var order []key
	for _, m := range ms {
		for _, a := range m.Assignments {
			k := key{a.Class, a.Unit}
			if _, ok := per[k]; !ok {
				order = append(order, k)
			}
			per[k] = append(per[k], a.Ranges)
		}
	}
	for _, k := range order {
		checked++
		cuts := []float64{0, 1}
		for _, rs := range per[k] {
			for _, rg := range rs {
				cuts = append(cuts, rg.Lo, rg.Hi)
			}
		}
		sort.Float64s(cuts)
		ok := true
		for i := 0; i+1 < len(cuts); i++ {
			lo, hi := cuts[i], cuts[i+1]
			if hi-lo <= 1e-12 {
				continue
			}
			mid, depth := lo+(hi-lo)/2, 0
			for _, rs := range per[k] {
				hits := 0
				for _, rg := range rs {
					if mid >= rg.Lo && mid < rg.Hi {
						hits++
					}
				}
				if hits > 1 {
					ok = false
				}
				depth += hits
			}
			if depth != r {
				ok = false
			}
		}
		if !ok {
			bad++
		}
	}
	return checked, bad
}

// ---- decide ----------------------------------------------------------------

// decideMask is the engine's per-session coordination check: one verdict
// bit per class.
func decideMask(d *decider, s *session) uint64 {
	m, ok := d.DecideMask(s)
	if !ok {
		panic("perf: manifest exceeds 64 classes")
	}
	return m
}

// hashTuple computes the four selection hashes a connection record carries.
func hashTuple(t fiveTuple) float64 {
	h := hashing.Hasher{Key: hashKey}
	return h.Flow(t) + h.Session(t) + h.Source(t) + h.Destination(t)
}

func tupleOf(s *session) fiveTuple { return s.Tuple }

// ---- analyze: the engine, from sessions and from a capture ------------------

type engineMode int

const (
	engineEdge  engineMode = iota // ModePlain standalone: every module, every session
	engineCoord                   // ModeCoordEvent driven by a wire manifest's decider
)

func engineConfig(mode engineMode, modules []moduleSpec, d *decider, node, workers int) bro.Config {
	cfg := bro.Config{
		Mode: bro.ModePlain, Modules: modules, Node: node,
		Hasher: hashing.Hasher{Key: hashKey}, Workers: workers,
	}
	if mode == engineCoord {
		cfg.Mode, cfg.Decider = bro.ModeCoordEvent, d
	}
	return cfg
}

func engineRun(mode engineMode, modules []moduleSpec, d *decider, node, workers int, sessions []session) engReport {
	return bro.Run(engineConfig(mode, modules, d, node, workers), sessions)
}

// pcapIdle is the reassembly idle timeout RunPcap and ReadSessions use.
const pcapIdle = 5 * time.Minute

func enginePcap(mode engineMode, modules []moduleSpec, d *decider, node int, capture []byte) (engReport, error) {
	return bro.RunPcap(engineConfig(mode, modules, d, node, 1), bytes.NewReader(capture), pcapIdle)
}

// writeCapture expands sessions into an in-memory pcap capture.
func writeCapture(sessions []session, seed int64) (capture []byte, frames int, err error) {
	var buf bytes.Buffer
	start := time.Unix(1_280_000_000, 0).UTC()
	frames, err = packet.WriteSessionsPcap(packet.NewWriter(&buf), sessions, start, time.Minute, seed)
	return buf.Bytes(), frames, err
}

// readCapture is the ingestion front half alone: decode and reassemble.
func readCapture(capture []byte) (sessions []session, decoded, malformed int, err error) {
	out, asm, err := packet.ReadSessions(packet.NewReader(bytes.NewReader(capture)), pcapIdle, hashKey)
	if err != nil {
		return nil, 0, 0, err
	}
	return out, asm.Decoded, asm.Malformed, nil
}

// captureTuples decodes every frame's five-tuple and timestamp, the inputs
// of a connection-table update.
func captureTuples(capture []byte) ([]fiveTuple, []time.Time, []int, error) {
	r := packet.NewReader(bytes.NewReader(capture))
	var tuples []fiveTuple
	var stamps []time.Time
	var sizes []int
	for {
		ts, frame, err := r.ReadPacket()
		if err == io.EOF {
			return tuples, stamps, sizes, nil
		}
		if err != nil {
			return nil, nil, nil, err
		}
		ft, err := packet.FiveTupleOf(frame)
		if err != nil {
			return nil, nil, nil, err
		}
		tuples = append(tuples, ft)
		stamps = append(stamps, ts)
		sizes = append(sizes, len(frame))
	}
}

// conntrackPass feeds every frame tuple through a fresh connection table.
func conntrackPass(tuples []fiveTuple, stamps []time.Time, sizes []int) int {
	t := conntrack.New(conntrack.Config{IdleTimeout: pcapIdle, HashKey: hashKey})
	for i := range tuples {
		t.Update(tuples[i], stamps[i], 1, sizes[i])
	}
	return t.Len()
}

// ---- NIPS ------------------------------------------------------------------

// nipsBase builds the paper's 50-node NIPS instance; nipsWithMatches swaps
// in a fresh seeded match-rate matrix without rebuilding paths and volumes.
func nipsBase(t *topo, rules, maxPaths int) *nipsInst {
	return nips.NewInstance(t, nips.UnitRules(rules), nips.Config{
		MaxPaths: maxPaths, RuleCapacityFraction: 0.1, MatchSeed: 1,
	})
}

func nipsWithMatches(base *nipsInst, seed int64) *nipsInst {
	inst := *base
	inst.M = traffic.MatchRates(len(base.Rules), len(base.Paths), 0, 0.01, seed)
	return &inst
}

type nipsOutcome struct {
	objective, upperBound float64
	verifyErr             error
}

// nipsSolve is the deployed NIPS pipeline: one relaxation, one rounding
// iteration with greedy fill and LP re-solve, serial.
func nipsSolve(inst *nipsInst, reg *registry) (nipsOutcome, error) {
	dep, rel, err := nips.Solve(inst, nips.SolveOptions{
		Variant: nips.VariantRoundGreedyLP, Iters: 1, Workers: 1, Seed: 1, Metrics: reg,
	})
	if err != nil {
		return nipsOutcome{}, err
	}
	return nipsOutcome{objective: dep.Objective, upperBound: rel.Objective, verifyErr: dep.Verify(inst)}, nil
}

// nipsRelax is the relaxation alone.
func nipsRelax(inst *nipsInst) error {
	_, err := nips.SolveRelaxation(inst)
	return err
}

// ---- distribute: controller and agents over loopback TCP --------------------

func newController() (*controller, error) {
	return control.NewControllerOpts("127.0.0.1:0", control.ControllerOptions{HashKey: hashKey})
}

func newAgent(addr string, node int) *agent {
	return control.NewAgentOpts(addr, node, control.AgentOptions{DialTimeout: 2 * time.Second, RPCTimeout: 5 * time.Second})
}

type syncKind int

const (
	syncDeltaBinary syncKind = iota // v2: if-stale, deltas, binary encoding
	syncFormBinary                  // v2: unconditional fetch, binary (a new agent's first sync)
	syncFullJSON                    // v1: unconditional full manifest, JSON
)

type syncResult struct {
	epoch     uint64
	changed   bool
	full      bool
	wireBytes int
}

// syncAgent performs one Subscribe round trip.
func syncAgent(a *agent, kind syncKind) (syncResult, error) {
	var opts control.SubscribeOptions
	switch kind {
	case syncDeltaBinary:
		opts = control.SubscribeOptions{Mode: control.ModeIfStale, Deltas: true, Encoding: control.EncodingBinary}
	case syncFormBinary:
		opts = control.SubscribeOptions{Mode: control.ModeOnce, Deltas: true, Encoding: control.EncodingBinary}
	case syncFullJSON:
		opts = control.SubscribeOptions{Mode: control.ModeOnce}
	}
	sub, err := a.Subscribe(opts)
	if err != nil {
		return syncResult{}, err
	}
	u := sub.Last()
	return syncResult{epoch: u.Epoch, changed: u.Changed, full: u.Full, wireBytes: u.WireBytes}, nil
}

func agentEpoch(a *agent) uint64 {
	if d := a.Decider(); d != nil {
		return d.Epoch()
	}
	return 0
}

// synthPlan builds a deployment plan for the topology's nodes without the
// LP (which tops out near 50 nodes): one PerIngress unit per node, each
// node's manifest holding a 1/window slice of the window nearest units —
// the assignment shape ManifestFromPlan produces from real solves.
func synthPlan(t *topo, window int) *plan {
	n := t.N()
	inst := &core.Instance{
		Topo: t,
		Classes: []core.Class{
			{Name: "signature", Scope: core.PerIngress, Agg: core.BySource, CPUPerPkt: 1, MemPerItem: 400},
		},
		Caps: core.UniformCaps(n, 1e9, 1e12),
	}
	for j := 0; j < n; j++ {
		inst.Units = append(inst.Units, core.CoordUnit{
			Class: 0, Key: [2]int{j, -1}, Nodes: []int{j}, Pkts: 1e5, Items: 1e4,
		})
	}
	p := &core.Plan{Inst: inst, Redundancy: 1}
	for j := 0; j < n; j++ {
		m := core.NodeManifest{Node: j, Ranges: make(map[int]hashing.RangeSet, window)}
		for w := 0; w < window; w++ {
			lo := float64(w) / float64(window)
			m.Ranges[(j+w)%n] = hashing.RangeSet{{Lo: lo, Hi: lo + 1/float64(window)}}
		}
		p.Manifests = append(p.Manifests, m)
	}
	return p
}

// churnPlan returns a copy of the plan in which a seeded frac of the units
// had every carrying node's slice shifted — the shape of a drift-triggered
// replan that moves a few boundaries and leaves the rest alone. The input
// plan is not modified: the controller keeps past generations by reference
// to serve deltas from.
func churnPlan(p *plan, window int, frac float64, rng *rand.Rand) *plan {
	n := len(p.Manifests)
	out := &core.Plan{Inst: p.Inst, Redundancy: p.Redundancy, Manifests: make([]core.NodeManifest, n)}
	for j, m := range p.Manifests {
		ranges := make(map[int]hashing.RangeSet, len(m.Ranges))
		for u, rs := range m.Ranges {
			ranges[u] = rs
		}
		out.Manifests[j] = core.NodeManifest{Node: m.Node, Ranges: ranges}
	}
	for _, u := range rng.Perm(n)[:int(frac*float64(n))] {
		shift := 0.01 * float64(1+rng.Intn(7))
		for w := 0; w < window; w++ {
			j := (u - w + n) % n // node holding slice w of unit u
			old := out.Manifests[j].Ranges[u]
			moved := make(hashing.RangeSet, len(old))
			for i, r := range old {
				width := r.Hi - r.Lo
				lo := r.Lo + shift
				if lo+width > 1 {
					lo -= 1 - width
				}
				moved[i] = hashing.Range{Lo: lo, Hi: lo + width}
			}
			out.Manifests[j].Ranges[u] = moved
		}
	}
	return out
}

// ---- the whole pipeline: a cluster scenario ---------------------------------

// planes selects which write-only product planes a cluster run carries.
type planes struct {
	metrics, trace, ledger, fleet, governor bool
}

var allPlanes = planes{metrics: true, trace: true, ledger: true, fleet: true, governor: true}

type clusterRun struct {
	sessions, epochs int
	seed             int64
	planes           planes
	// onStep is called at the top of every epoch, before the epoch's work,
	// with the run's registry (nil when the metrics plane is off).
	onStep func(epoch int, reg *registry)
}

type clusterOutcome struct {
	epochs, breaches, replans, replanIters int
	floorHeld                              bool
	reg                                    *registry // nil when the metrics plane is off
}

const (
	clusterRedundancy = 2
	// clusterTrafficSeed pins the baseline workload the cluster plans from
	// (the network's modelled traffic); the run's seed drives the diurnal
	// modulation of it and the runtime's own decisions.
	clusterTrafficSeed = 11
)

// stampedDriver wraps the diurnal driver so the benchmark sees each epoch
// boundary without the runtime knowing it is being timed.
type stampedDriver struct {
	inner  cluster.ScenarioDriver
	reg    *registry
	onStep func(epoch int, reg *registry)
}

func (d *stampedDriver) Name() string { return d.inner.Name() }
func (d *stampedDriver) Step(env *cluster.ScenarioEnv) cluster.Stimulus {
	if d.onStep != nil {
		d.onStep(env.Epoch, d.reg)
	}
	return d.inner.Step(env)
}

// runCluster forms an 11-agent Internet2 cluster over loopback TCP and runs
// it through a diurnal day: governor, drift-triggered warm replans, the
// data plane, and whichever product planes are selected.
func runCluster(c clusterRun) (clusterOutcome, error) {
	t := internet2()
	var reg *registry
	if c.planes.metrics {
		reg = obs.New()
	}
	cfg := cluster.ScenarioConfig{
		Driver: &stampedDriver{inner: experiments.NewDiurnal(c.seed, c.epochs), reg: reg, onStep: c.onStep},
		Topo:   t, Sessions: c.sessions, TrafficSeed: clusterTrafficSeed, Seed: c.seed,
		Epochs: c.epochs, Redundancy: clusterRedundancy,
		Governor: c.planes.governor, Replan: true, WarmReplan: true, DataPlane: true,
		Metrics: reg,
	}
	if c.planes.trace {
		cfg.Trace = trace.New(trace.Options{Seed: c.seed})
	}
	if c.planes.ledger {
		cfg.Ledger = ledger.New(ledger.Options{Seed: c.seed})
	}
	if c.planes.fleet {
		cfg.Fleet = telemetry.NewFleet(t.N(), telemetry.FleetOptions{})
		cfg.FleetHistory = telemetry.NewHistory(c.epochs)
	}
	rep, err := cluster.RunScenario(cfg)
	if err != nil {
		return clusterOutcome{}, err
	}
	if cfg.Ledger != nil {
		if err := cfg.Ledger.Err(); err != nil {
			return clusterOutcome{}, fmt.Errorf("ledger: %w", err)
		}
	}
	return clusterOutcome{
		epochs: len(rep.Epochs), breaches: rep.Breaches, replans: rep.Replans,
		replanIters: rep.TotalReplanIters, floorHeld: rep.FloorHeld, reg: reg,
	}, nil
}

// clusterTrace regenerates the workload the scenario runtime plans from.
func clusterTrace(sessions int) []session {
	t := internet2()
	return traffic.Generate(t, traffic.Gravity(t), traffic.GenConfig{Sessions: sessions, Seed: clusterTrafficSeed})
}

// ---- registry reads ---------------------------------------------------------

func newRegistry() *registry { return obs.New() }

func counterValue(reg *registry, name string) int64 { return reg.Counter(name).Value() }
func spanSumNs(reg *registry, name string) int64    { return reg.Histogram(name).Sum() }
