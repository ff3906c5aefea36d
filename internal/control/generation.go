package control

import (
	"fmt"
	"slices"
	"sync/atomic"

	"nwdeploy/internal/core"
)

// generation is one published configuration. Each node's manifest is
// built once per generation — its assignments once per plan, at publish,
// and the manifest around them on the node's first request. Full answers,
// delta answers and the ledger commit all read these; nothing rebuilds a
// manifest per request. A generation is immutable once published apart
// from its slots, each filled at most once (atomically); serve goroutines
// read generations without holding the controller's lock.
type generation struct {
	epoch uint64
	trace *WireTrace // the trace context at publish, stamped on manifests
	// plan is the published plan in wire form, shared by every generation
	// a shed-only publish derives from it; nil before the first plan.
	plan  *wirePlan
	shed  map[int][]WireAssignment   // per-node shed state, a snapshot
	slots []atomic.Pointer[Manifest] // by node; nil until first requested
}

// wirePlan is a plan's per-node assignments in wire form.
type wirePlan struct {
	hashKey     uint32
	classes     []WireClass
	assignments [][]WireAssignment // by node
}

// newWirePlan converts every node's assignments, with the class table
// converted once and shared.
func newWirePlan(plan *core.Plan, hashKey uint32) *wirePlan {
	wp := &wirePlan{hashKey: hashKey, classes: wireClasses(plan.Inst), assignments: make([][]WireAssignment, len(plan.Manifests))}
	for j := range plan.Manifests {
		wp.assignments[j] = wireAssignments(plan, j)
	}
	return wp
}

// newGeneration publishes a generation of plan (nil before any plan) with
// a snapshot of the shed state.
func newGeneration(plan *wirePlan, epoch uint64, shed map[int][]WireAssignment, wt *WireTrace) *generation {
	g := &generation{epoch: epoch, trace: wt, plan: plan}
	if plan == nil {
		return g
	}
	if len(shed) > 0 {
		g.shed = make(map[int][]WireAssignment, len(shed))
		for j, s := range shed {
			g.shed[j] = s
		}
	}
	g.slots = make([]atomic.Pointer[Manifest], len(plan.assignments))
	return g
}

// published returns node's manifest at g, built on the first call.
func (g *generation) published(node int) *Manifest {
	slot := &g.slots[node]
	if m := slot.Load(); m != nil {
		return m
	}
	m := &Manifest{
		Node: node, Epoch: g.epoch, HashKey: g.plan.hashKey, Classes: g.plan.classes,
		Assignments: g.plan.assignments[node], Shed: g.shed[node], Trace: g.trace,
	}
	if !slot.CompareAndSwap(nil, m) {
		m = slot.Load()
	}
	return m
}

// manifest returns node's manifest as served now, stamped with the
// current trace context wt (which SetTrace may have moved since publish).
func (g *generation) manifest(node int, wt *WireTrace) (*Manifest, error) {
	if node < 0 || node >= len(g.slots) {
		return nil, fmt.Errorf("control: node %d out of range", node)
	}
	m := g.published(node)
	if m.Trace != wt {
		cp := *m
		cp.Trace = wt
		m = &cp
	}
	return m, nil
}

// deltaFrom returns the delta rewriting node's manifest at base into its
// manifest at g, stamped with wt, or nil when the pair cannot be diffed.
func (g *generation) deltaFrom(base *generation, node int, wt *WireTrace) *WireDelta {
	if node < 0 || node >= len(g.slots) || node >= len(base.slots) {
		return nil
	}
	d, ok := DiffManifests(base.published(node), g.published(node))
	if !ok {
		return nil
	}
	d.Trace = wt
	return d
}

// wireClasses converts the instance's class table to wire form.
func wireClasses(inst *core.Instance) []WireClass {
	var out []WireClass
	for _, c := range inst.Classes {
		out = append(out, WireClass{
			Name:      c.Name,
			Scope:     int(c.Scope),
			Agg:       int(c.Agg),
			Ports:     c.Ports,
			Transport: c.Transport,
		})
	}
	return out
}

// wireAssignments converts node's ranges in plan to wire assignments, as
// ManifestFromPlan emits them: units in ascending index order, empty
// ranges and units dropped, nil when none is left. The assignments and
// their ranges take one allocation each.
func wireAssignments(plan *core.Plan, node int) []WireAssignment {
	ranges := plan.Manifests[node].Ranges
	var unitBuf [32]int
	units := unitBuf[:0]
	nRanges := 0
	for ui, rs := range ranges {
		units = append(units, ui)
		nRanges += len(rs)
	}
	slices.Sort(units)
	var out []WireAssignment
	back := make([]WireRange, 0, nRanges)
	for _, ui := range units {
		start := len(back)
		for _, r := range ranges[ui] {
			if r.Width() > 0 {
				back = append(back, WireRange(r))
			}
		}
		if len(back) == start {
			continue
		}
		if out == nil {
			out = make([]WireAssignment, 0, len(units))
		}
		u := plan.Inst.Units[ui]
		out = append(out, WireAssignment{Class: u.Class, Unit: u.Key, Ranges: back[start:len(back):len(back)]})
	}
	return out
}
