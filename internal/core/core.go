// Package core implements the paper's primary NIDS contribution (Section
// 2): partitioning NIDS analysis responsibilities across a network so that
// coverage is complete — the deployment is logically equivalent to one NIDS
// seeing all traffic — while the maximum per-node CPU/memory load is
// minimized.
//
// The pipeline mirrors the paper exactly:
//
//  1. Model analysis classes C_i, their coordination units P_ik, and
//     per-unit traffic volumes T_ik (Section 2.1) — see Class, CoordUnit,
//     Instance, and BuildInstance.
//  2. Solve the linear program of Eqs. (1)–(6) (Section 2.2) — Solve.
//  3. Translate the optimal fractional assignment d*_ikj into hash-range
//     sampling manifests (Figure 2), including the Section 2.5 redundancy
//     extension where the coverage requirement r > 1 is handled by covering
//     the space [0, r] with wraparound — Plan.Manifests.
//  4. Run the per-packet check of Figure 3 on each node — Plan.ShouldAnalyze.
package core

import (
	"fmt"
	"math"

	"nwdeploy/internal/hashing"
	"nwdeploy/internal/lp"
	"nwdeploy/internal/obs"
	"nwdeploy/internal/topology"
	"nwdeploy/internal/traffic"
)

// Scope determines how a class's traffic partitions into coordination units.
type Scope int

const (
	// PerPath units group traffic by its end-to-end route: every node on
	// the (bidirectional) path between the endpoints observes the traffic,
	// so all of them are eligible analysts. Signature matching, HTTP, IRC,
	// and other session analyses use this scope.
	PerPath Scope = iota
	// PerIngress units group traffic by the host that initiates it; only
	// the host's ingress node sees everything the host sends, so the
	// eligible set is that single node. Scan detection uses this scope
	// ("outbound scans ... are best detected close to network gateways").
	PerIngress
	// PerEgress units group traffic by where it exits; only the egress
	// node sees everything destined to the hosts behind it, making it the
	// right vantage for inbound-flood detection.
	PerEgress
)

// Aggregation is the unit of state a class keeps, which both selects the
// hash variant used in the Figure 3 check and determines what T_ik^items
// counts ("the number of flows in per-flow analysis and the number of
// distinct source addresses in per-source analysis").
type Aggregation int

const (
	// BySession aggregates per bidirectional connection.
	BySession Aggregation = iota
	// ByFlow aggregates per unidirectional 5-tuple.
	ByFlow
	// BySource aggregates per source address.
	BySource
	// ByDestination aggregates per destination address.
	ByDestination
)

// Class is one type of traffic analysis (a NIDS module) with its resource
// footprint per the offline profiles of Dreger et al. (the paper's [16]).
type Class struct {
	Name  string
	Scope Scope
	Agg   Aggregation
	// Ports restricts the class's traffic specification T_i to sessions
	// with one of these server ports; empty means all traffic.
	Ports []uint16
	// Transport restricts T_i to a transport protocol (6 TCP, 17 UDP);
	// zero means any transport.
	Transport uint8
	// CPUPerPkt is CpuReq_i: processing cost units per packet analyzed.
	CPUPerPkt float64
	// MemPerItem is MemReq_i: bytes of state per aggregation item.
	MemPerItem float64
}

// Matches reports whether the class analyzes the given session.
func (c Class) Matches(s traffic.Session) bool {
	if c.Transport != 0 && s.Tuple.Proto != c.Transport {
		return false
	}
	if len(c.Ports) == 0 {
		return true
	}
	for _, p := range c.Ports {
		if s.Tuple.DstPort == p {
			return true
		}
	}
	return false
}

// HashOf returns the Figure 3 hash for this class's aggregation: the
// "specific packet fields used for HASH depend on semantics of C_i".
func (c Class) HashOf(h hashing.Hasher, t hashing.FiveTuple) float64 {
	switch c.Agg {
	case ByFlow:
		return h.Flow(t)
	case BySource:
		return h.Source(t)
	case ByDestination:
		return h.Destination(t)
	default:
		return h.Session(t)
	}
}

// CoordUnit is one coordination unit P_ik: a set of nodes all of which
// observe every packet in the traffic component T_ik.
type CoordUnit struct {
	Class int // index into Instance.Classes
	// Key identifies the traffic component: for PerPath units it is the
	// unordered endpoint pair {A, B} with A < B; for PerIngress units A is
	// the ingress node and B is -1.
	Key [2]int
	// Nodes is P_ik, the eligible analysts, in path order for PerPath.
	Nodes []int
	// Pkts and Items are T_ik^pkts and T_ik^items.
	Pkts, Items float64
}

// NodeResources is one node's capacities (CpuCap_j, MemCap_j). The model is
// heterogeneous; the paper's evaluation sets all locations equal.
type NodeResources struct {
	CPU float64 // processing capacity in cost units per interval
	Mem float64 // memory capacity in bytes
}

// Instance is a fully specified NIDS placement problem.
type Instance struct {
	Topo    *topology.Topology
	Classes []Class
	Units   []CoordUnit
	Caps    []NodeResources

	unitIdx map[unitRef]int
}

type unitRef struct {
	class int
	key   [2]int
}

// UniformCaps builds equal capacities for every node, as in the paper's
// network-wide evaluation ("all locations ... the same processing/memory
// capabilities").
func UniformCaps(n int, cpu, mem float64) []NodeResources {
	caps := make([]NodeResources, n)
	for i := range caps {
		caps[i] = NodeResources{CPU: cpu, Mem: mem}
	}
	return caps
}

// BuildInstance derives the LP inputs from a topology, class list, and a
// session workload: the per-unit packet and item volumes the paper obtains
// from traffic reports (NetFlow/SNMP). Sessions determine both which
// coordination units exist (pairs with traffic) and their T_ik volumes.
func BuildInstance(topo *topology.Topology, classes []Class, sessions []traffic.Session, caps []NodeResources) (*Instance, error) {
	if len(caps) != topo.N() {
		return nil, fmt.Errorf("core: %d capacities for %d nodes", len(caps), topo.N())
	}
	// Loads are volumes divided by capacities, so a zero, negative or
	// non-finite capacity would reach the LP as an infinite or NaN weight.
	positive := func(x float64) bool { return x > 0 && !math.IsInf(x, 1) } // false for NaN
	for j, c := range caps {
		if !positive(c.CPU) || !positive(c.Mem) {
			return nil, fmt.Errorf("core: node %d (%s) has capacity CPU %v, memory %v; both must be finite and > 0",
				j, topo.Nodes[j].Name, c.CPU, c.Mem)
		}
	}
	inst := &Instance{
		Topo:    topo,
		Classes: classes,
		Caps:    caps,
		unitIdx: make(map[unitRef]int),
	}
	paths := topo.PathMatrix()

	// Distinct-item sets per unit for BySource/ByDestination aggregation.
	type itemSets struct {
		srcs map[uint32]struct{}
		dsts map[uint32]struct{}
	}
	items := map[unitRef]*itemSets{}

	unit := func(ref unitRef, nodes []int) *CoordUnit {
		if idx, ok := inst.unitIdx[ref]; ok {
			return &inst.Units[idx]
		}
		inst.unitIdx[ref] = len(inst.Units)
		inst.Units = append(inst.Units, CoordUnit{Class: ref.class, Key: ref.key, Nodes: append([]int(nil), nodes...)})
		items[ref] = &itemSets{srcs: map[uint32]struct{}{}, dsts: map[uint32]struct{}{}}
		return &inst.Units[len(inst.Units)-1]
	}

	for _, s := range sessions {
		for ci, c := range classes {
			if !c.Matches(s) {
				continue
			}
			var ref unitRef
			var nodes []int
			switch c.Scope {
			case PerPath:
				a, b := s.Src, s.Dst
				if a > b {
					a, b = b, a
				}
				ref = unitRef{ci, [2]int{a, b}}
				nodes = paths[a][b]
			case PerIngress:
				ref = unitRef{ci, [2]int{s.Src, -1}}
				nodes = []int{s.Src}
			case PerEgress:
				ref = unitRef{ci, [2]int{s.Dst, -1}}
				nodes = []int{s.Dst}
			}
			u := unit(ref, nodes)
			u.Pkts += float64(s.Packets)
			set := items[ref]
			switch c.Agg {
			case BySource:
				set.srcs[s.Tuple.SrcIP] = struct{}{}
			case ByDestination:
				set.dsts[s.Tuple.DstIP] = struct{}{}
			case ByFlow:
				u.Items += 2 // one flow per direction
			default:
				u.Items++
			}
		}
	}
	for ref, set := range items {
		u := &inst.Units[inst.unitIdx[ref]]
		switch inst.Classes[ref.class].Agg {
		case BySource:
			u.Items = float64(len(set.srcs))
		case ByDestination:
			u.Items = float64(len(set.dsts))
		}
	}
	return inst, nil
}

// UnitFor resolves the coordination unit of a session for a class, i.e. the
// GETCOORDUNIT step of Figure 3. The boolean is false when the session's
// component never appeared in the instance workload.
func (inst *Instance) UnitFor(class int, s traffic.Session) (int, bool) {
	c := inst.Classes[class]
	var ref unitRef
	switch c.Scope {
	case PerPath:
		a, b := s.Src, s.Dst
		if a > b {
			a, b = b, a
		}
		ref = unitRef{class, [2]int{a, b}}
	case PerIngress:
		ref = unitRef{class, [2]int{s.Src, -1}}
	case PerEgress:
		ref = unitRef{class, [2]int{s.Dst, -1}}
	}
	idx, ok := inst.unitIdx[ref]
	return idx, ok
}

// Assignment is the solved fractional split for one coordination unit:
// Frac[i] is d_ikj for Nodes[i] of the unit.
type Assignment struct {
	Unit int
	Frac []float64
}

// NodeManifest is one node's sampling manifest (Figure 2's Manifest(R_j)):
// hash ranges per coordination unit, possibly wrapped around 1.0 under the
// Section 2.5 redundancy extension.
type NodeManifest struct {
	Node   int
	Ranges map[int]hashing.RangeSet // unit index -> ranges
}

// Plan is a solved network-wide NIDS deployment.
type Plan struct {
	Inst        *Instance
	Redundancy  int
	Assignments []Assignment
	Manifests   []NodeManifest // indexed by node ID

	// Objective is the LP optimum: the minimized max of the per-node
	// CPU and memory load fractions.
	Objective float64
	// MaxCPULoad and MaxMemLoad are the components recomputed from the
	// assignment (both <= Objective + tolerance).
	MaxCPULoad, MaxMemLoad float64
	// SolverIters counts simplex iterations, for the optimization-time
	// reproduction.
	SolverIters int
	// Basis is the LP's optimal basis, captured when the plan was solved
	// with SolveOptions.CaptureBasis (or warm-started). Feeding it to a
	// later solve's SolveOptions.WarmBasis re-solves a same-shaped
	// instance with perturbed volumes from this optimum — the cluster's
	// drift-triggered replan path.
	Basis *lp.Basis
	// Stats is the LP solver's work report (per-phase pivots, Bland
	// activations, presolve eliminations). Like SolverIters it is
	// deterministic: it never includes wall-clock quantities, so plans
	// solved with and without a metrics registry compare equal.
	Stats lp.SolveStats
}

// SolveOptions parameterizes SolveOpts, mirroring nips.SolveOptions.
type SolveOptions struct {
	// Redundancy is the Section 2.5 coverage level r (0 selects 1).
	Redundancy int
	// Aggregation, when non-nil, adds the Section 5 network-wide
	// communication budget row to the formulation: the total digest
	// byte-hops toward the collector must fit AggregationConfig.Budget. A
	// loose budget reproduces the base plan's objective; tightening it pulls
	// analysis toward the collector at the price of a higher max load. The
	// row changes the LP's shape, so CaptureBasis and WarmBasis apply to
	// the base LP only.
	Aggregation *AggregationConfig
	// Metrics, when non-nil, receives solve observability (the lp
	// package's counters plus solve wall time). The registry is
	// write-only, so the returned Plan is identical with or without it
	// (nil is the no-op default; see internal/obs).
	Metrics *obs.Registry
	// CaptureBasis exports the LP's optimal basis on the returned Plan.
	// It disables presolve (a presolved solution's columns do not map to
	// the full column space), trading some solve speed for replan speed.
	CaptureBasis bool
	// WarmBasis, when non-nil, warm-starts the LP from a previous plan's
	// Basis. Valid only across instances of identical shape — same units
	// in the same order with the same eligible-node sets — i.e. volume
	// perturbations of one instance (see WithVolumes and Scaled). An
	// unusable basis falls back to a cold start. Implies CaptureBasis.
	WarmBasis *lp.Basis
	// MaxIters bounds the LP's simplex iterations; zero selects the
	// solver's size-proportional default. The cluster replan loop uses
	// this as a deterministic deadline: a solve that exceeds it fails
	// with lp.ErrIterLimit instead of blocking the epoch protocol.
	MaxIters int
}

// SolveOpts formulates and solves the placement LP selected by opts: the
// Eqs. (1)–(6) base formulation, generalized to coverage r, plus the
// aggregation budget row when opts.Aggregation is set.
func SolveOpts(inst *Instance, opts SolveOptions) (*Plan, error) {
	r := opts.Redundancy
	if r == 0 {
		r = 1
	}
	sp := opts.Metrics.StartSpan("core.solve_ns")
	defer sp.End()
	plan, err := solveNIDS(inst, r, opts)
	if err != nil {
		return nil, err
	}
	if m := opts.Metrics; m != nil {
		m.Add("core.solves", 1)
		m.Gauge("core.objective").Set(plan.Objective)
	}
	return plan, nil
}

// Solve formulates and solves the LP of Eqs. (1)–(6) with coverage level
// r >= 1 (r = 1 is the base formulation; r > 1 is the redundancy extension,
// which covers the hash space [0, r] while keeping every d_ikj <= 1).
func Solve(inst *Instance, r int) (*Plan, error) {
	return solveNIDS(inst, r, SolveOptions{})
}

// solveNIDS is the one builder of the placement LP: Eqs. (1)–(6) at
// coverage r, plus the Section 5 budget row when opts.Aggregation is set,
// with the solver-facing options (metrics, basis capture/warm start,
// iteration cap) threaded into the LP solve.
func solveNIDS(inst *Instance, r int, opts SolveOptions) (*Plan, error) {
	if r < 1 {
		return nil, fmt.Errorf("core: redundancy level %d < 1", r)
	}
	for _, u := range inst.Units {
		if len(u.Nodes) < r {
			return nil, fmt.Errorf("core: unit %v of class %s has %d eligible nodes < redundancy %d",
				u.Key, inst.Classes[u.Class].Name, len(u.Nodes), r)
		}
	}
	agg := opts.Aggregation
	var hops []float64 // each node's hop distance to the collector
	if agg != nil {
		var err error
		if hops, err = agg.hops(inst); err != nil {
			return nil, err
		}
	}

	p := lp.New(lp.Minimize)
	lambda := p.AddVar(1, 0, lp.Inf())

	// d variables per (unit, node), with per-node load accumulation terms.
	dVars := make([][]lp.Var, len(inst.Units))
	n := inst.Topo.N()
	cpuTerms := make([][]lp.Term, n)
	memTerms := make([][]lp.Term, n)
	var commTerms []lp.Term
	for ui, u := range inst.Units {
		c := inst.Classes[u.Class]
		dVars[ui] = make([]lp.Var, len(u.Nodes))
		cover := make([]lp.Term, 0, len(u.Nodes))
		for vi, node := range u.Nodes {
			v := p.AddVar(0, 0, 1)
			dVars[ui][vi] = v
			cover = append(cover, lp.Term{Var: v, Coef: 1})
			if w := c.CPUPerPkt * u.Pkts / inst.Caps[node].CPU; w != 0 {
				cpuTerms[node] = append(cpuTerms[node], lp.Term{Var: v, Coef: w})
			}
			if w := c.MemPerItem * u.Items / inst.Caps[node].Mem; w != 0 {
				memTerms[node] = append(memTerms[node], lp.Term{Var: v, Coef: w})
			}
			if agg != nil {
				if w := agg.BytesPerItem * u.Items * hops[node]; w != 0 {
					commTerms = append(commTerms, lp.Term{Var: v, Coef: w})
				}
			}
		}
		// Eq (1), generalized to coverage r per Section 2.5.
		p.AddConstraint(cover, lp.EQ, float64(r))
	}
	// Eqs (2)–(5): lambda >= CpuLoad_j and lambda >= MemLoad_j.
	for j := 0; j < n; j++ {
		if len(cpuTerms[j]) > 0 {
			p.AddConstraint(append([]lp.Term{{Var: lambda, Coef: -1}}, cpuTerms[j]...), lp.LE, 0)
		}
		if len(memTerms[j]) > 0 {
			p.AddConstraint(append([]lp.Term{{Var: lambda, Coef: -1}}, memTerms[j]...), lp.LE, 0)
		}
	}
	if len(commTerms) > 0 {
		p.AddConstraint(commTerms, lp.LE, agg.Budget)
	}

	// Presolve pays off on the base LP: every ingress/egress-pinned unit is
	// a singleton coverage equality the reductions eliminate outright. It
	// is incompatible with basis capture, though — a presolved solution's
	// columns live in the reduced model — so warm-start workflows trade it
	// away. It stays off under the budget row too, where it would move the
	// optimal vertex (the plan golden's aggregation cases pin it).
	lpo := lp.Options{MaxIters: opts.MaxIters, Metrics: opts.Metrics}
	if agg == nil {
		lpo.Presolve = !opts.CaptureBasis && opts.WarmBasis == nil
		lpo.WarmBasis = opts.WarmBasis
	}
	sol, err := p.SolveOpts(lpo)
	if err != nil {
		return nil, fmt.Errorf("core: solving NIDS LP: %w", err)
	}
	switch {
	case sol.Status == lp.StatusInfeasible && agg != nil:
		return nil, fmt.Errorf("core: aggregation budget %v for this workload: %w", agg.Budget, lp.ErrInfeasible)
	case sol.Status != lp.StatusOptimal:
		return nil, fmt.Errorf("core: NIDS LP (is redundancy %d feasible?): %w", r, sol.Status.Err())
	}

	plan := &Plan{Inst: inst, Redundancy: r, Objective: sol.Objective, SolverIters: sol.Iters, Stats: sol.Stats}
	if agg == nil {
		plan.Basis = sol.Basis
	}
	plan.Assignments = make([]Assignment, len(inst.Units))
	for ui := range inst.Units {
		frac := make([]float64, len(dVars[ui]))
		for vi, v := range dVars[ui] {
			frac[vi] = clamp01(sol.Value(v))
		}
		plan.Assignments[ui] = Assignment{Unit: ui, Frac: frac}
	}
	plan.buildManifests()
	plan.MaxCPULoad, plan.MaxMemLoad = Loads(inst, plan)
	return plan, nil
}

// clamp01 confines a solver value to [0, 1]. NaN maps to 0: both x < 0 and
// x > 1 are false for NaN, so without the explicit check a degenerate solver
// tolerance would propagate NaN into the hash-range boundaries built by
// buildManifests.
func clamp01(x float64) float64 {
	if math.IsNaN(x) || x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// buildManifests implements GENERATENIDSMANIFEST (Figure 2), generalized to
// coverage r: the cumulative range walks [0, r] and wraps around every time
// it exceeds 1 (Section 2.5). Per-unit fractions are rescaled so boundaries
// tile [0, r] exactly despite solver tolerances.
func (p *Plan) buildManifests() {
	n := p.Inst.Topo.N()
	p.Manifests = make([]NodeManifest, n)
	for j := 0; j < n; j++ {
		p.Manifests[j] = NodeManifest{Node: j, Ranges: make(map[int]hashing.RangeSet)}
	}
	for ui := range p.Assignments {
		p.walkUnit(ui, func(node int, lo, hi float64) {
			var rs hashing.RangeSet
			loM, hiM := math.Mod(lo, 1), math.Mod(hi, 1)
			switch {
			case hi-lo >= 1:
				// d == 1 (possible only when it owns a full copy).
				rs = hashing.RangeSet{{Lo: 0, Hi: 1}}
			case loM < hiM:
				rs = hashing.RangeSet{{Lo: loM, Hi: hiM}}
			default:
				rs = hashing.RangeSet{{Lo: loM, Hi: 1}}
				if hiM > 0 {
					rs = append(rs, hashing.Range{Lo: 0, Hi: hiM})
				}
			}
			existing := p.Manifests[node].Ranges[ui]
			p.Manifests[node].Ranges[ui] = append(existing, rs...)
		})
	}
}

// walkUnit replays the Figure 2 cumulative cursor for one unit, emitting
// each node's contiguous piece [lo, hi) in the cursor's [0, r] coordinates
// (before the wraparound fold). buildManifests and Slices both consume
// this walk, which is what guarantees that copy-indexed slices and the
// published manifests describe the same geometry boundary-for-boundary.
func (p *Plan) walkUnit(ui int, emit func(node int, lo, hi float64)) {
	a := p.Assignments[ui]
	u := p.Inst.Units[ui]
	r := float64(p.Redundancy)
	total := 0.0
	for _, f := range a.Frac {
		total += f
	}
	if total <= 0 {
		return
	}
	scale := r / total
	// Identify the last node with a non-negligible share: it absorbs
	// the rounding remainder so boundaries tile [0, r] exactly.
	const negligible = 1e-9
	last := -1
	for vi := range u.Nodes {
		if a.Frac[vi]*scale > negligible {
			last = vi
		}
	}
	pos := 0.0
	for vi, node := range u.Nodes {
		w := a.Frac[vi] * scale
		if vi == last {
			w = r - pos // absorb rounding in the final slice
		}
		// A node's share can exceed 1 only by floating-point crumbs
		// (d <= 1 in the LP); clamp so the cursor stays on exact copy
		// boundaries and no hairline gap opens at the wraparound.
		if w > 1 {
			w = 1
		}
		if w <= negligible {
			continue
		}
		lo, hi := pos, pos+w
		pos = hi
		emit(node, lo, hi)
	}
}

// ShouldAnalyze runs the COORDINATEDNIDS check of Figure 3 for one class on
// one node: resolve the coordination unit, hash the per-class key fields,
// and test membership in the node's assigned ranges.
func (p *Plan) ShouldAnalyze(node, class int, s traffic.Session, h hashing.Hasher) bool {
	if !p.Inst.Classes[class].Matches(s) {
		return false
	}
	ui, ok := p.Inst.UnitFor(class, s)
	if !ok {
		return false
	}
	rs, ok := p.Manifests[node].Ranges[ui]
	if !ok {
		return false
	}
	return rs.Contains(p.Inst.Classes[class].HashOf(h, s.Tuple))
}

// Loads recomputes the per-node CPU and memory load fractions of Eqs. (2)
// and (3) from a plan's fractional assignment and returns the maxima.
func Loads(inst *Instance, p *Plan) (maxCPU, maxMem float64) {
	cpu, mem := PerNodeLoads(inst, p)
	for j := range cpu {
		maxCPU = math.Max(maxCPU, cpu[j])
		maxMem = math.Max(maxMem, mem[j])
	}
	return maxCPU, maxMem
}

// PerNodeLoads returns the per-node CPU and memory load fractions.
func PerNodeLoads(inst *Instance, p *Plan) (cpu, mem []float64) {
	n := inst.Topo.N()
	cpu = make([]float64, n)
	mem = make([]float64, n)
	for ui, a := range p.Assignments {
		u := inst.Units[ui]
		c := inst.Classes[u.Class]
		for vi, node := range u.Nodes {
			d := a.Frac[vi]
			cpu[node] += c.CPUPerPkt * u.Pkts * d / inst.Caps[node].CPU
			mem[node] += c.MemPerItem * u.Items * d / inst.Caps[node].Mem
		}
	}
	return cpu, mem
}

// EdgePlan builds the single-vantage-point baseline the paper compares
// against: every node independently analyzes all traffic it originates or
// terminates (full [0,1) ranges at both endpoints of every unit). The
// resulting "plan" intentionally double-covers path units, exactly like
// running an uncoordinated Bro at each edge.
func EdgePlan(inst *Instance) *Plan {
	p := &Plan{Inst: inst, Redundancy: 1}
	p.Assignments = make([]Assignment, len(inst.Units))
	n := inst.Topo.N()
	p.Manifests = make([]NodeManifest, n)
	for j := 0; j < n; j++ {
		p.Manifests[j] = NodeManifest{Node: j, Ranges: make(map[int]hashing.RangeSet)}
	}
	full := hashing.RangeSet{{Lo: 0, Hi: 1}}
	for ui, u := range inst.Units {
		frac := make([]float64, len(u.Nodes))
		var endpoints []int
		switch inst.Classes[u.Class].Scope {
		case PerIngress, PerEgress:
			endpoints = []int{u.Key[0]}
		default:
			endpoints = []int{u.Key[0], u.Key[1]}
		}
		for _, e := range endpoints {
			p.Manifests[e].Ranges[ui] = full
			for vi, node := range u.Nodes {
				if node == e {
					frac[vi] = 1
				}
			}
		}
		p.Assignments[ui] = Assignment{Unit: ui, Frac: frac}
	}
	p.MaxCPULoad, p.MaxMemLoad = Loads(inst, p)
	p.Objective = math.Max(p.MaxCPULoad, p.MaxMemLoad)
	return p
}
