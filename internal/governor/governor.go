// Package governor implements per-node load governing for the data plane:
// graceful, deterministic load shedding when a node's offered load exceeds
// the budget the placement LP predicted for it.
//
// The paper's deployment (Section 2.2) plans against traffic reports, so a
// node's achieved load tracks its predicted load only while traffic stays
// near the planned volumes. Bursts between replans would otherwise either
// overrun the node (dropping packets indiscriminately) or force an
// emergency re-solve. The governor instead sheds *responsibility*: it
// shrinks the node's hash ranges by whole or partial manifest slices,
// outermost redundancy copies first, and never touches copy 0 of any unit —
// so the network-wide coverage floor of one complete analyst per
// coordination unit (the r = 1 guarantee of Section 2.5) survives any
// combination of nodes shedding, by local reasoning alone.
//
// Local reasoning assumes each unit's copy 0 is enforced by the node the
// plan gives it to. Right after a replan that node may still hold its old
// manifest, so the runtime protects such ranges (Governor.Protect) until
// it has fetched the new one: no copy is shed there either.
//
// Everything the governor does is a pure function of the plan, the
// offered per-unit volume scales and the protected ranges: no clocks, no
// randomness. Two governors built from the same plan and fed the same
// inputs shed identical ranges, which is what makes cluster runs
// reproducible under any worker count.
package governor

import (
	"fmt"
	"math"
	"sort"

	"nwdeploy/internal/core"
	"nwdeploy/internal/hashing"
	"nwdeploy/internal/obs"
	"nwdeploy/internal/trace"
)

// Tolerance is the allowed overrun fraction: a governor sheds only when
// projected load exceeds budget*(1+Tolerance).
const Tolerance = 0.1

// floorCopies is the number of redundancy copies that are never shed,
// counted from copy 0: copy 0 is untouchable, which preserves the
// network-wide r = 1 coverage floor.
const floorCopies = 1

// Config configures one node's governor.
type Config struct {
	// Metrics, when non-nil, receives shed observability (write-only; the
	// governed behavior is identical with or without it).
	Metrics *obs.Registry
}

// ShedRange is one shed piece: the governor gave up Range of Unit's hash
// space within redundancy copy Copy.
type ShedRange struct {
	Unit  int
	Copy  int
	Range hashing.Range
}

// Report describes one epoch's governing decision for a node. All fields
// are logical quantities derived from the plan and the offered scales.
type Report struct {
	Node int
	// ProjectedCPU/Mem are the full-manifest load fractions at the offered
	// volumes; BudgetCPU/Mem are the same at plan volumes (the LP's
	// prediction for this node).
	ProjectedCPU, ProjectedMem float64
	BudgetCPU, BudgetMem       float64
	// CPUAfter/MemAfter are the projected loads after shedding.
	CPUAfter, MemAfter float64
	// ShedWidth is the total hash-space width given up across all units.
	ShedWidth float64
	// Shed lists the exact ranges given up, in shed order.
	Shed []ShedRange
	// Satisfied reports whether the post-shed load fits budget*(1+tol).
	// False means the node exhausted its sheddable slices (everything
	// above the coverage floor) and still projects over budget.
	Satisfied bool
}

// slice is one manifest slice with its precomputed unit-scale-1 load
// contributions.
type slice struct {
	core.ManifestSlice
	cpu, mem float64 // contribution at scale 1 (full slice width)
}

// Governor governs one node's load against its planned budget.
type Governor struct {
	cfg  Config
	plan *core.Plan
	node int

	slices []slice
	order  []int // indices into slices: sheddable, in shed order

	budgetCPU, budgetMem float64

	shed      map[int]hashing.RangeSet // unit -> ranges this node dropped
	shedWidth float64
	protect   map[int]hashing.RangeSet // unit -> ranges no copy may shed

	span trace.Span // per-epoch trace context (zero = untraced)
}

// New builds the governor for one node of a solved plan.
func New(plan *core.Plan, node int, cfg Config) (*Governor, error) {
	if node < 0 || node >= plan.Inst.Topo.N() {
		return nil, fmt.Errorf("governor: node %d out of range [0,%d)", node, plan.Inst.Topo.N())
	}
	g := &Governor{cfg: cfg, plan: plan, node: node}

	inst := plan.Inst
	for _, ms := range plan.Slices()[node] {
		u := inst.Units[ms.Unit]
		c := inst.Classes[u.Class]
		w := ms.Range.Width()
		g.slices = append(g.slices, slice{
			ManifestSlice: ms,
			cpu:           w * c.CPUPerPkt * u.Pkts / inst.Caps[node].CPU,
			mem:           w * c.MemPerItem * u.Items / inst.Caps[node].Mem,
		})
	}
	for _, s := range g.slices {
		g.budgetCPU += s.cpu
		g.budgetMem += s.mem
	}

	// Shed order: class index, then the outermost redundancy copy
	// (preserving inner copies longest), then unit and range position for
	// a total, deterministic order.
	for i, s := range g.slices {
		if s.Copy >= floorCopies {
			g.order = append(g.order, i)
		}
	}
	sort.Slice(g.order, func(a, b int) bool {
		sa, sb := g.slices[g.order[a]], g.slices[g.order[b]]
		ca, cb := inst.Units[sa.Unit].Class, inst.Units[sb.Unit].Class
		if ca != cb {
			return ca < cb
		}
		if sa.Copy != sb.Copy {
			return sa.Copy > sb.Copy
		}
		if sa.Unit != sb.Unit {
			return sa.Unit < sb.Unit
		}
		return sa.Range.Lo < sb.Range.Lo
	})
	return g, nil
}

// AttachSpan installs the trace context the next PlanEpoch records its
// decision events (overrun, shed_planned, shed_restore, floor_limited)
// under — set per epoch by the cluster runtime. The zero Span (the
// default) records nothing; the governed behavior is identical either
// way.
func (g *Governor) AttachSpan(sp trace.Span) { g.span = sp }

// Protect sets the ranges, per unit, that the next PlanEpoch may not shed
// from any copy: hash space whose floor copy (copy 0) is not yet enforced
// by its owner, so this node's copy may be the only analyst there. Each
// call replaces the previous set; nil protects nothing.
func (g *Governor) Protect(rs map[int]hashing.RangeSet) { g.protect = rs }

// PlanEpoch runs the admission decision for one epoch given the offered
// per-unit volume scales (observed volume / plan volume, indexed like the
// instance's Units; a nil slice means scale 1 everywhere). It recomputes
// the shed set from scratch: when the offered load fits the tolerated
// budget again, previously shed ranges are restored automatically.
func (g *Governor) PlanEpoch(scale []float64) (Report, error) {
	inst := g.plan.Inst
	if scale != nil && len(scale) != len(inst.Units) {
		return Report{}, fmt.Errorf("governor: %d scales for %d units", len(scale), len(inst.Units))
	}
	sc := func(unit int) float64 {
		if scale == nil {
			return 1
		}
		return scale[unit]
	}

	rep := Report{Node: g.node, BudgetCPU: g.budgetCPU, BudgetMem: g.budgetMem}
	for _, s := range g.slices {
		rep.ProjectedCPU += s.cpu * sc(s.Unit)
		rep.ProjectedMem += s.mem * sc(s.Unit)
	}
	limCPU := g.budgetCPU * (1 + Tolerance)
	limMem := g.budgetMem * (1 + Tolerance)

	if rep.ProjectedCPU <= limCPU && rep.ProjectedMem <= limMem {
		// Fits again: restore everything.
		if g.shedWidth > 0 {
			g.cfg.Metrics.Add("governor.restores", 1)
			g.span.Event(trace.EvShedRestore, trace.F64("width", g.shedWidth))
		}
		g.shed = nil
		g.shedWidth = 0
		rep.CPUAfter, rep.MemAfter = rep.ProjectedCPU, rep.ProjectedMem
		rep.Satisfied = true
		g.publish(rep)
		return rep, nil
	}

	g.cfg.Metrics.Add("governor.overloads", 1)
	g.span.Event(trace.EvOverrun,
		trace.F64("projected_cpu", rep.ProjectedCPU), trace.F64("budget_cpu", rep.BudgetCPU))

	// Shed: walk the drop order until the projection fits, splitting the
	// final slice so exactly the needed width is given up.
	g.shed = make(map[int]hashing.RangeSet)
	g.shedWidth = 0
	cpu, mem := rep.ProjectedCPU, rep.ProjectedMem
	for _, idx := range g.order {
		if cpu <= limCPU && mem <= limMem {
			break
		}
		s := g.slices[idx]
		ccpu := s.cpu * sc(s.Unit)
		cmem := s.mem * sc(s.Unit)
		if ccpu <= 0 && cmem <= 0 {
			continue // weightless slice: shedding it buys nothing
		}
		free := hashing.RangeSet{s.Range}.Subtract(g.protect[s.Unit])
		avail := free.Width() / s.Range.Width() // the sheddable fraction
		if avail <= 0 {
			continue
		}
		// Fraction of this slice needed to clear the binding resource.
		f := 0.0
		if ccpu > 0 {
			f = (cpu - limCPU) / ccpu
		}
		if cmem > 0 {
			if fm := (mem - limMem) / cmem; fm > f {
				f = fm
			}
		}
		if f >= avail {
			f = avail
		}
		whole := len(free) == 1 && free[0] == s.Range // nothing protected here
		for _, cut := range cutTop(free, s.Range.Width()*f, whole) {
			g.shed[s.Unit] = append(g.shed[s.Unit], cut)
			g.shedWidth += cut.Width()
			rep.Shed = append(rep.Shed, ShedRange{Unit: s.Unit, Copy: s.Copy, Range: cut})
		}
		cpu -= ccpu * f
		mem -= cmem * f
	}
	rep.CPUAfter, rep.MemAfter = cpu, mem
	rep.ShedWidth = g.shedWidth
	rep.Satisfied = cpu <= limCPU && mem <= limMem
	g.cfg.Metrics.Add("governor.sheds", 1)
	g.span.Event(trace.EvShedPlanned,
		trace.F64("width", rep.ShedWidth), trace.Int("slices", len(rep.Shed)))
	if !rep.Satisfied {
		// Everything above the coverage floor is gone and the node still
		// projects over budget: it runs hot by design rather than break r=1.
		g.span.Event(trace.EvFloorLimited, trace.F64("cpu_after", rep.CPUAfter))
	}
	g.publish(rep)
	return rep, nil
}

// cutTop returns the top width w of the ascending, disjoint pieces rs,
// highest piece first; the last cut is [Hi-w, Hi), clamped to [0, 1). Its
// Lo is also kept inside its piece unless whole (rs is the entire slice,
// so below it lies no protected range to round into).
func cutTop(rs hashing.RangeSet, w float64, whole bool) []hashing.Range {
	var out []hashing.Range
	for i := len(rs) - 1; i >= 0; i-- {
		r := rs[i]
		if i > 0 && w > r.Width() {
			out = append(out, r)
			w -= r.Width()
			continue
		}
		lo := r.Hi - w
		if !whole {
			lo = math.Max(lo, r.Lo)
		}
		return append(out, hashing.Range{Lo: lo, Hi: r.Hi}.Clamp())
	}
	return out
}

// publish pushes the epoch's gauges to the metrics registry.
func (g *Governor) publish(rep Report) {
	m := g.cfg.Metrics
	if m == nil {
		return
	}
	m.Gauge(fmt.Sprintf("governor.node%d.shed_width", g.node)).Set(rep.ShedWidth)
	m.Gauge(fmt.Sprintf("governor.node%d.load_after", g.node)).Set(rep.CPUAfter)
}

// ShedRanges returns a copy of the current shed state, keyed by unit — the
// wire form the controller publishes so peers and audits can subtract the
// dropped responsibility exactly.
func (g *Governor) ShedRanges() map[int]hashing.RangeSet {
	if len(g.shed) == 0 {
		return nil
	}
	out := make(map[int]hashing.RangeSet, len(g.shed))
	for ui, rs := range g.shed {
		out[ui] = append(hashing.RangeSet(nil), rs...)
	}
	return out
}
