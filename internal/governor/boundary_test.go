package governor

import (
	"math"
	"testing"

	"nwdeploy/internal/core"
	"nwdeploy/internal/topology"
)

// boundaryPlan hand-builds a two-unit plan with power-of-two volumes and
// caps so every load quantity in the shed walk is exact in float64. Both
// units split 50/50 across nodes 0 and 1 at redundancy 2, so node 1 holds
// exactly two sheddable (copy-1) full-range slices of 1.0 CPU load each:
// budget 2.0, tolerated limit boundaryLimit. Items/MemPerItem are zero, so
// CPU is always the binding resource.
func boundaryPlan() *core.Plan {
	topo := topology.Internet2()
	inst := &core.Instance{
		Topo: topo,
		Classes: []core.Class{
			{Name: "sig", Scope: core.PerPath, Agg: core.BySession, CPUPerPkt: 1},
		},
		Units: []core.CoordUnit{
			{Class: 0, Key: [2]int{0, 1}, Nodes: []int{0, 1}, Pkts: 1024},
			{Class: 0, Key: [2]int{2, 3}, Nodes: []int{0, 1}, Pkts: 1024},
		},
		Caps: core.UniformCaps(topo.N(), 1024, 1),
	}
	return &core.Plan{
		Inst:       inst,
		Redundancy: 2,
		Assignments: []core.Assignment{
			{Unit: 0, Frac: []float64{0.5, 0.5}},
			{Unit: 1, Frac: []float64{0.5, 0.5}},
		},
	}
}

// boundaryLimit is the fixture's tolerated limit, computed as the shed walk
// computes it. It is not 2.2 but 2·fl(1.1), whose last mantissa bit is
// zero at 2^-51: 2 + boundaryLimit, and the same ± 2^-40, are exact, so
// every load quantity the boundary tests form stays exact.
var boundaryLimit = 2.0 * (1 + Tolerance)

func boundaryGovernor(t *testing.T) *Governor {
	t.Helper()
	g, err := New(boundaryPlan(), 1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if cpu := g.budgetCPU; cpu != 2.0 {
		t.Fatalf("boundary fixture budget = %v, want exactly 2.0", cpu)
	}
	return g
}

// Exact whole-slice boundary: scales [2.0, limit] put the projection at
// 2 + limit, so the overrun (2.0) exactly equals the first
// sheddable slice's offered load. The split fraction computes to exactly
// 1.0 — the f >= 1 clamp must take the whole slice, land the residual load
// bitwise on the limit, and stop without touching the second slice.
func TestShedExactWholeSliceBoundary(t *testing.T) {
	g := boundaryGovernor(t)
	rep, err := g.PlanEpoch([]float64{2.0, boundaryLimit})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ProjectedCPU-boundaryLimit != 2.0 {
		t.Fatalf("projection %v, want exactly 2 + %v", rep.ProjectedCPU, boundaryLimit)
	}
	if len(rep.Shed) != 1 {
		t.Fatalf("exact whole-slice overrun shed %d ranges, want 1: %+v", len(rep.Shed), rep.Shed)
	}
	sr := rep.Shed[0]
	if sr.Unit != 0 || sr.Copy != 1 || sr.Range.Lo != 0 || sr.Range.Hi != 1 {
		t.Fatalf("shed the wrong slice: %+v", sr)
	}
	if rep.CPUAfter != boundaryLimit {
		t.Fatalf("post-shed load %v, want bitwise %v (the limit)", rep.CPUAfter, boundaryLimit)
	}
	if !rep.Satisfied {
		t.Fatal("load exactly at the tolerated limit reported unsatisfied")
	}
	if rep.ShedWidth != 1 {
		t.Fatalf("shed width %v, want exactly 1", rep.ShedWidth)
	}
}

// Exact partial-slice boundary: one ULP-scale epsilon below the whole-slice
// case, the final (here: only) shed slice must split, giving up exactly the
// fraction that lands the residual load on the limit — budget exactly
// equals cumulative post-shed load, reached through the partial-split path.
// eps = 2^-40 keeps every intermediate representable, so the asserts are
// bitwise, not tolerance-based.
func TestShedPartialFinalSliceExactFit(t *testing.T) {
	eps := math.Ldexp(1, -40)
	g := boundaryGovernor(t)
	rep, err := g.PlanEpoch([]float64{2.0, boundaryLimit - eps})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Shed) != 1 {
		t.Fatalf("partial overrun shed %d ranges, want 1: %+v", len(rep.Shed), rep.Shed)
	}
	sr := rep.Shed[0]
	wantF := 1 - eps/2 // (2.0 - eps) / 2.0, exact in float64
	if sr.Range.Hi != 1 || sr.Range.Lo != 1-wantF {
		t.Fatalf("partial cut %+v, want [%v, 1)", sr.Range, 1-wantF)
	}
	if rep.CPUAfter != boundaryLimit {
		t.Fatalf("post-shed load %v, want bitwise %v", rep.CPUAfter, boundaryLimit)
	}
	if !rep.Satisfied {
		t.Fatal("exact-fit partial shed reported unsatisfied")
	}
	// The floor copy was never touched and a scale-1 epoch restores fully.
	rep, err = g.PlanEpoch(nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ShedWidth != 0 || g.shedWidth != 0 {
		t.Fatalf("restore after exact-fit shed left width %v", rep.ShedWidth)
	}
}

// One ULP-scale epsilon above the whole-slice boundary: the walk must take
// the whole first slice, then split a vanishing sliver off the second —
// terminating satisfied, never looping, never reporting floor-limited while
// sheddable width remains. This is the off-by-ULP edge: the sliver math is
// allowed rounding crumbs, but only at the 1e-12 scale.
func TestShedHairAboveWholeSliceBoundary(t *testing.T) {
	eps := math.Ldexp(1, -40)
	g := boundaryGovernor(t)
	rep, err := g.PlanEpoch([]float64{2.0, boundaryLimit + eps})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Shed) != 2 {
		t.Fatalf("hair-above overrun shed %d ranges, want full slice + sliver: %+v", len(rep.Shed), rep.Shed)
	}
	if first := rep.Shed[0]; first.Unit != 0 || first.Range.Width() != 1 {
		t.Fatalf("first shed not the whole unit-0 slice: %+v", first)
	}
	if sliver := rep.Shed[1]; sliver.Unit != 1 || sliver.Range.Width() > 1e-9 {
		t.Fatalf("second shed not a sliver of unit 1: %+v", sliver)
	}
	if !rep.Satisfied {
		t.Fatalf("governor reported floor-limited with sheddable width left (after %v, limit %v)", rep.CPUAfter, boundaryLimit)
	}
	if rep.CPUAfter > boundaryLimit+1e-12 {
		t.Fatalf("post-shed load %v above limit beyond rounding crumbs", rep.CPUAfter)
	}
	for _, sr := range rep.Shed {
		if sr.Copy < 1 {
			t.Fatalf("boundary walk shed floor copy: %+v", sr)
		}
	}
}
