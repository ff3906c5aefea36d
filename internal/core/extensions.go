package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"nwdeploy/internal/hashing"
)

// GreedyPlan is the ablation baseline for the LP: it assigns each
// coordination unit wholly to whichever eligible node currently carries
// the least load (normalized max of CPU and memory), with no fractional
// splitting. It shows how much of the coordinated deployment's benefit
// comes from the optimization itself rather than from merely spreading
// work off the edge.
func GreedyPlan(inst *Instance) *Plan {
	n := inst.Topo.N()
	cpu := make([]float64, n)
	mem := make([]float64, n)

	p := &Plan{Inst: inst, Redundancy: 1}
	p.Assignments = make([]Assignment, len(inst.Units))
	for ui, u := range inst.Units {
		c := inst.Classes[u.Class]
		best, bestLoad := -1, math.Inf(1)
		for _, node := range u.Nodes {
			load := math.Max(
				cpu[node]+c.CPUPerPkt*u.Pkts/inst.Caps[node].CPU,
				mem[node]+c.MemPerItem*u.Items/inst.Caps[node].Mem,
			)
			if load < bestLoad {
				best, bestLoad = node, load
			}
		}
		frac := make([]float64, len(u.Nodes))
		for vi, node := range u.Nodes {
			if node == best {
				frac[vi] = 1
			}
		}
		cpu[best] += c.CPUPerPkt * u.Pkts / inst.Caps[best].CPU
		mem[best] += c.MemPerItem * u.Items / inst.Caps[best].Mem
		p.Assignments[ui] = Assignment{Unit: ui, Frac: frac}
	}
	p.buildManifests()
	p.MaxCPULoad, p.MaxMemLoad = Loads(inst, p)
	p.Objective = math.Max(p.MaxCPULoad, p.MaxMemLoad)
	return p
}

// Scaled returns a copy of the instance with every coordination unit's
// volumes multiplied by scale(unit) — the hook the Section 5 conservative
// provisioning uses to plan on 95th-percentile rather than mean volumes.
// Topology, classes, capacities, and unit identity are shared; plans
// solved on the scaled instance can therefore be evaluated against the
// original (or any other scaling) with PerNodeLoads.
func (inst *Instance) Scaled(scale func(CoordUnit) float64) *Instance {
	out := &Instance{
		Topo:    inst.Topo,
		Classes: inst.Classes,
		Caps:    inst.Caps,
		Units:   make([]CoordUnit, len(inst.Units)),
		unitIdx: inst.unitIdx,
	}
	for ui, u := range inst.Units {
		f := scale(u)
		scaled := u
		scaled.Pkts *= f
		scaled.Items *= f
		out.Units[ui] = scaled
	}
	return out
}

// AggregationConfig models the paper's Section 5 "Aggregated analysis"
// extension: classes whose results must be correlated network-wide (alert
// correlation, anomaly detection on traffic feature distributions) ship
// per-item digests from the analyzing node to a collector. The shipping
// consumes a communication budget proportional to hop distance, coupling
// the placement problem to the network cost of aggregation.
type AggregationConfig struct {
	// Collector is the node where aggregated views are assembled.
	Collector int
	// BytesPerItem is the digest size shipped per analyzed item.
	BytesPerItem float64
	// Budget caps the total digest byte-hops per optimization interval.
	Budget float64
}

// hops validates the configuration against inst and returns every node's
// hop distance to the collector.
func (agg AggregationConfig) hops(inst *Instance) ([]float64, error) {
	if agg.Collector < 0 || agg.Collector >= inst.Topo.N() {
		return nil, fmt.Errorf("core: collector node %d out of range", agg.Collector)
	}
	if agg.Budget <= 0 || agg.BytesPerItem <= 0 {
		return nil, fmt.Errorf("core: aggregation budget and digest size must be positive")
	}
	hops := make([]float64, inst.Topo.N())
	paths := inst.Topo.ShortestPaths(agg.Collector)
	for j := range hops {
		if len(paths[j]) == 0 {
			return nil, fmt.Errorf("core: node %d cannot reach collector %d", j, agg.Collector)
		}
		hops[j] = float64(len(paths[j]) - 1)
	}
	return hops, nil
}

// AggregationCost evaluates a plan's digest byte-hops toward a collector —
// the quantity SolveOptions.Aggregation budgets.
func AggregationCost(inst *Instance, p *Plan, agg AggregationConfig) float64 {
	hops := make([]float64, inst.Topo.N())
	paths := inst.Topo.ShortestPaths(agg.Collector)
	for j := range hops {
		if len(paths[j]) > 0 {
			hops[j] = float64(len(paths[j]) - 1)
		}
	}
	var cost float64
	for ui, a := range p.Assignments {
		u := inst.Units[ui]
		for vi, node := range u.Nodes {
			cost += a.Frac[vi] * agg.BytesPerItem * u.Items * hops[node]
		}
	}
	return cost
}

// ProbeCoverage measures hash-space coverage for nUnits coordination units
// on a grid of `probes` midpoints (t+0.5)/probes of each unit's [0,1) space
// (0 or negative selects the default 10000). covered appends the ranges of
// unit ui's hash space some live analyzer handles to dst and returns the
// result; they may come in any order and overlap. The probe counts the
// midpoints in their union, so it costs O(ranges) per unit whatever the
// grid size, and every count is the one a point-by-point test of the same
// midpoints against the same ranges gives. It returns the worst per-unit
// covered fraction and the average across units. Both the static
// CoverageUnderFailure audit and the cluster runtime's achieved-coverage
// measurement are this probe with different range sets, which is what
// makes their results directly comparable: same points, same accumulation
// order. dst is scratch recycled across units and calls, so covered must
// not retain it, and a steady caller allocates nothing.
func ProbeCoverage(nUnits, probes int, covered func(unit int, dst hashing.RangeSet) hashing.RangeSet) (worst, avg float64) {
	if nUnits == 0 {
		return 1, 1
	}
	if probes <= 0 {
		probes = 10000
	}
	worst = 1
	bp := probeBufs.Get().(*hashing.RangeSet)
	buf := *bp
	for ui := 0; ui < nUnits; ui++ {
		buf = covered(ui, buf[:0])
		frac := float64(probeCount(buf, probes)) / float64(probes)
		if frac < worst {
			worst = frac
		}
		avg += frac
	}
	*bp = buf
	probeBufs.Put(bp)
	avg /= float64(nUnits)
	return worst, avg
}

// probeBufs recycles ProbeCoverage's scratch buffers.
var probeBufs = sync.Pool{New: func() any { return new(hashing.RangeSet) }}

// probeCount counts the probe midpoints that fall in the union of rs. Each
// range holds the midpoints [firstProbe(Lo), firstProbe(Hi)); sorted by Lo,
// the ranges' index intervals are swept once, counting each index at most
// once. It reorders rs in place.
func probeCount(rs hashing.RangeSet, probes int) int {
	n := 0
	for _, r := range rs {
		if r.Lo < r.Hi { // drops empty, inverted and NaN ranges
			rs[n] = r
			n++
		}
	}
	rs = rs[:n]
	slices.SortFunc(rs, func(a, b hashing.Range) int { return cmp.Compare(a.Lo, b.Lo) })
	count, next := 0, 0 // next: the first index no earlier range reached
	for _, r := range rs {
		lo, hi := max(firstProbe(r.Lo, probes), next), firstProbe(r.Hi, probes)
		if hi > lo {
			count += hi - lo
			next = hi
		}
	}
	return count
}

// probeAt is probe t's midpoint: the one expression every coverage count
// is defined by.
func probeAt(t, probes int) float64 { return (float64(t) + 0.5) / float64(probes) }

// firstProbe returns the smallest t in [0, probes] whose midpoint is >= v
// (probes when none is). A Ceil estimate lands within a step of it; the
// correction then compares probeAt itself, so rounding in the estimate
// cannot move a count. Midpoints are nondecreasing in t because division
// rounds monotonically.
func firstProbe(v float64, probes int) int {
	if !(v > probeAt(0, probes)) {
		return 0
	}
	if v > probeAt(probes-1, probes) {
		return probes
	}
	// Here probeAt(0) < v <= probeAt(probes-1), so the answer is in
	// [1, probes-1] and the estimate converts to int safely.
	t := min(max(int(math.Ceil(v*float64(probes)-0.5)), 1), probes-1)
	for probeAt(t-1, probes) >= v {
		t--
	}
	for probeAt(t, probes) < v {
		t++
	}
	return t
}

// CoverageUnderFailure evaluates a plan's residual analysis coverage when
// the given nodes have failed — the scenario the Section 2.5 redundancy
// extension provisions for ("robust to NIDS failures ... hardware or OS
// crashes"). It returns the worst-case fraction of any coordination unit's
// hash space still analyzed by at least one surviving node, and the
// average across units. A plan solved with redundancy r keeps full
// coverage under any r-1 failures of nodes that share units.
func CoverageUnderFailure(p *Plan, failed []int) (worst, avg float64) {
	down := make(map[int]bool, len(failed))
	for _, j := range failed {
		down[j] = true
	}
	inst := p.Inst
	return ProbeCoverage(len(inst.Units), 0, func(ui int, dst hashing.RangeSet) hashing.RangeSet {
		for _, node := range inst.Units[ui].Nodes {
			if !down[node] {
				dst = append(dst, p.Manifests[node].Ranges[ui]...)
			}
		}
		return dst
	})
}
