package core

import (
	"math"
	"testing"

	"nwdeploy/internal/topology"
	"nwdeploy/internal/traffic"
)

func extInstance(t *testing.T) *Instance {
	t.Helper()
	topo := topology.Internet2()
	tm := traffic.Gravity(topo)
	sessions := traffic.Generate(topo, tm, traffic.GenConfig{Sessions: 5000, Seed: 77})
	classes := []Class{
		{Name: "signature", Scope: PerPath, Agg: BySession, CPUPerPkt: 1, MemPerItem: 400},
		{Name: "http", Scope: PerPath, Agg: BySession, Ports: []uint16{80}, CPUPerPkt: 2, MemPerItem: 600},
		{Name: "scan", Scope: PerIngress, Agg: BySource, CPUPerPkt: 0.3, MemPerItem: 120},
	}
	inst, err := BuildInstance(topo, classes, sessions, UniformCaps(topo.N(), 1e7, 1e9))
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestGreedyPlanIsFeasibleButWorseThanLP(t *testing.T) {
	inst := extInstance(t)
	greedy := GreedyPlan(inst)
	lpPlan, err := Solve(inst, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Coverage: every unit fully assigned to exactly one node.
	for ui, a := range greedy.Assignments {
		sum := 0.0
		whole := 0
		for _, f := range a.Frac {
			sum += f
			if f == 1 {
				whole++
			}
		}
		if math.Abs(sum-1) > 1e-9 || whole != 1 {
			t.Fatalf("unit %d: greedy fractions %v", ui, a.Frac)
		}
	}
	// The LP can only do better (or equal) on the minimized objective.
	if lpPlan.Objective > greedy.Objective+1e-9 {
		t.Fatalf("LP objective %v worse than greedy %v", lpPlan.Objective, greedy.Objective)
	}
	// On a realistic instance the fractional split should win strictly:
	// this is the ablation the LP's existence rests on.
	if lpPlan.Objective >= greedy.Objective*0.999 {
		t.Fatalf("LP (%v) no better than greedy (%v); ablation signal lost", lpPlan.Objective, greedy.Objective)
	}
	// And the greedy plan's manifests still cover each unit exactly once.
	for ui, u := range inst.Units {
		for _, x := range []float64{0.1, 0.5, 0.9} {
			hits := 0
			for _, node := range u.Nodes {
				if greedy.Manifests[node].Covers(ui, x) {
					hits++
				}
			}
			if hits != 1 {
				t.Fatalf("greedy manifest covers unit %d point %v %d times", ui, x, hits)
			}
		}
	}
}

func TestAggregationLooseBudgetMatchesPlainSolve(t *testing.T) {
	inst := extInstance(t)
	plain, err := Solve(inst, 1)
	if err != nil {
		t.Fatal(err)
	}
	agg := AggregationConfig{Collector: 6, BytesPerItem: 64, Budget: 1e18}
	with, err := SolveOpts(inst, SolveOptions{Aggregation: &agg})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(with.Objective-plain.Objective) > 1e-6*(1+plain.Objective) {
		t.Fatalf("loose budget changed objective: %v vs %v", with.Objective, plain.Objective)
	}
}

func TestAggregationTightBudgetTradesLoad(t *testing.T) {
	inst := extInstance(t)
	agg := AggregationConfig{Collector: 6, BytesPerItem: 64, Budget: 1e18}
	loose, err := SolveOpts(inst, SolveOptions{Aggregation: &agg})
	if err != nil {
		t.Fatal(err)
	}
	looseCost := AggregationCost(inst, loose, agg)
	if looseCost <= 0 {
		t.Fatal("zero aggregation cost; instance degenerate")
	}
	// The structurally minimal cost assigns every unit to its
	// hop-closest eligible node (ingress-pinned units have no freedom at
	// all); a feasible tight budget must sit above that floor.
	hops := make([]float64, inst.Topo.N())
	for j, path := range inst.Topo.ShortestPaths(agg.Collector) {
		hops[j] = float64(len(path) - 1)
	}
	var minCost float64
	for _, u := range inst.Units {
		best := math.Inf(1)
		for _, node := range u.Nodes {
			best = math.Min(best, agg.BytesPerItem*u.Items*hops[node])
		}
		minCost += best
	}
	if minCost >= looseCost-1e-6 {
		t.Skip("no slack between the minimal and unconstrained communication cost")
	}
	agg.Budget = (minCost + looseCost) / 2
	tight, err := SolveOpts(inst, SolveOptions{Aggregation: &agg})
	if err != nil {
		t.Fatal(err)
	}
	if got := AggregationCost(inst, tight, agg); got > agg.Budget*(1+1e-6) {
		t.Fatalf("budget violated: cost %v > %v", got, agg.Budget)
	}
	if tight.Objective < loose.Objective-1e-9 {
		t.Fatalf("tight budget lowered the max load (%v < %v)?", tight.Objective, loose.Objective)
	}
	if tight.Objective <= loose.Objective*(1+1e-9) {
		t.Log("note: halving communication was free here; acceptable but unusual")
	}
	// Coverage still complete.
	for ui := range inst.Units {
		sum := 0.0
		for _, f := range tight.Assignments[ui].Frac {
			sum += f
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("unit %d coverage %v under tight budget", ui, sum)
		}
	}
}

func TestAggregationValidation(t *testing.T) {
	inst := extInstance(t)
	if _, err := SolveOpts(inst, SolveOptions{Aggregation: &AggregationConfig{Collector: -1, BytesPerItem: 1, Budget: 1}}); err == nil {
		t.Fatal("expected collector validation error")
	}
	if _, err := SolveOpts(inst, SolveOptions{Aggregation: &AggregationConfig{Collector: 0, BytesPerItem: 0, Budget: 1}}); err == nil {
		t.Fatal("expected digest-size validation error")
	}
	if _, err := SolveOpts(inst, SolveOptions{Redundancy: -1, Aggregation: &AggregationConfig{Collector: 0, BytesPerItem: 1, Budget: 1}}); err == nil {
		t.Fatal("expected redundancy validation error")
	}
	// An absurdly tight budget must report infeasibility cleanly.
	if _, err := SolveOpts(inst, SolveOptions{Aggregation: &AggregationConfig{Collector: 0, BytesPerItem: 64, Budget: 1e-9}}); err == nil {
		t.Fatal("expected infeasibility for near-zero budget")
	}
}

func TestCoverageUnderFailureEdgeCases(t *testing.T) {
	topo := topology.Internet2()
	tm := traffic.Gravity(topo)
	sessions := traffic.Generate(topo, tm, traffic.GenConfig{Sessions: 2000, Seed: 77})
	classes := []Class{
		{Name: "signature", Scope: PerPath, Agg: BySession, CPUPerPkt: 1, MemPerItem: 400},
	}
	inst, err := BuildInstance(topo, classes, sessions, UniformCaps(topo.N(), 1e7, 1e9))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Solve(inst, 1)
	if err != nil {
		t.Fatal(err)
	}

	// Empty failure sets — nil and zero-length — mean full coverage.
	for _, failed := range [][]int{nil, {}} {
		worst, avg := CoverageUnderFailure(plan, failed)
		if worst < 0.999 || avg < 0.999 {
			t.Fatalf("failed=%v: worst=%v avg=%v, want full coverage", failed, worst, avg)
		}
	}

	// All nodes failed: nothing is analyzed anywhere.
	all := make([]int, topo.N())
	for j := range all {
		all[j] = j
	}
	if worst, avg := CoverageUnderFailure(plan, all); worst != 0 || avg != 0 {
		t.Fatalf("all nodes failed: worst=%v avg=%v, want 0, 0", worst, avg)
	}

	// Duplicate node IDs behave exactly like the deduplicated set.
	var dupTarget int
	for j := 0; j < topo.N(); j++ {
		if w, _ := CoverageUnderFailure(plan, []int{j}); w < 0.999 {
			dupTarget = j
			break
		}
	}
	w1, a1 := CoverageUnderFailure(plan, []int{dupTarget})
	w2, a2 := CoverageUnderFailure(plan, []int{dupTarget, dupTarget, dupTarget})
	if w1 != w2 || a1 != a2 {
		t.Fatalf("duplicates changed the result: (%v, %v) vs (%v, %v)", w1, a1, w2, a2)
	}
}

func TestRedundancySurvivesSingleNodeFailure(t *testing.T) {
	// Path-scoped classes so r=2 is feasible.
	topo := topology.Internet2()
	tm := traffic.Gravity(topo)
	sessions := traffic.Generate(topo, tm, traffic.GenConfig{Sessions: 3000, Seed: 61})
	classes := []Class{
		{Name: "signature", Scope: PerPath, Agg: BySession, CPUPerPkt: 1, MemPerItem: 400},
	}
	inst, err := BuildInstance(topo, classes, sessions, UniformCaps(topo.N(), 1e7, 1e9))
	if err != nil {
		t.Fatal(err)
	}
	r1, err := Solve(inst, 1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Solve(inst, 2)
	if err != nil {
		t.Fatal(err)
	}

	// No failures: both plans cover fully.
	if w, _ := CoverageUnderFailure(r2, nil); w < 0.999 {
		t.Fatalf("r=2 coverage without failures = %v", w)
	}

	// Any single node failure: the r=2 plan keeps complete coverage of
	// every unit; the r=1 plan loses some.
	r1Lost := false
	for j := 0; j < topo.N(); j++ {
		w2, _ := CoverageUnderFailure(r2, []int{j})
		if w2 < 0.999 {
			t.Fatalf("r=2 plan lost coverage (%.4f) when node %d failed", w2, j)
		}
		if w1, _ := CoverageUnderFailure(r1, []int{j}); w1 < 0.999 {
			r1Lost = true
		}
	}
	if !r1Lost {
		t.Fatal("r=1 plan never lost coverage under single failures; scenario vacuous")
	}

	// Two failures can defeat r=2 on two-node paths.
	worstTwo := 1.0
	for a := 0; a < topo.N(); a++ {
		for b := a + 1; b < topo.N(); b++ {
			w, _ := CoverageUnderFailure(r2, []int{a, b})
			if w < worstTwo {
				worstTwo = w
			}
		}
	}
	if worstTwo >= 0.999 {
		t.Fatal("r=2 plan survived all double failures; topology should not allow that")
	}
}
