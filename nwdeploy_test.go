package nwdeploy

import (
	"testing"

	"nwdeploy/internal/core"
)

// TestPublicAPINIDS exercises the facade end-to-end the way README's
// quickstart does.
func TestPublicAPINIDS(t *testing.T) {
	topo := Internet2()
	tm := GravityMatrix(topo)
	sessions := GenerateSessions(topo, tm, 3000, 1)
	classes := []Class{
		{Name: "signature", CPUPerPkt: 1, MemPerItem: 400},
		{Name: "http", Ports: []uint16{80}, CPUPerPkt: 2, MemPerItem: 600},
	}
	inst, err := BuildNIDSInstance(topo, classes, sessions, UniformCaps(topo.N(), 1e7, 1e9))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanNIDS(inst, NIDSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Objective <= 0 {
		t.Fatalf("objective %v", plan.Objective)
	}
	h := Hasher{Key: 1}
	analyzed := 0
	for _, s := range sessions[:100] {
		for node := 0; node < topo.N(); node++ {
			if plan.ShouldAnalyze(node, 0, s, h) {
				analyzed++
			}
		}
	}
	if analyzed != 100 {
		t.Fatalf("signature class analyzed %d/100 sessions, want exactly-once coverage", analyzed)
	}
}

func TestPublicAPINIPS(t *testing.T) {
	topo := Geant()
	inst := BuildNIPSInstance(topo, UnitRules(10), NIPSConfig{
		MaxPaths:             10,
		RuleCapacityFraction: 0.2,
		MatchSeed:            5,
	})
	res, err := PlanNIPS(inst, NIPSOptions{Variant: NIPSRoundingGreedyLP, Iters: 3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	dep, optLP := res.Deployment, res.LPBound
	if dep.Objective <= 0 || optLP < dep.Objective-1e-6 {
		t.Fatalf("objective %v vs OptLP %v", dep.Objective, optLP)
	}
	if res.Gap < 0 || res.Gap > 1 {
		t.Fatalf("gap %v outside [0, 1]", res.Gap)
	}
	if res.Stats.Iterations != 3 || res.Stats.Trials < 3 {
		t.Fatalf("stats %+v, want 3 iterations and >= 3 trials", res.Stats)
	}
	if err := dep.Verify(inst); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIAdaptive(t *testing.T) {
	topo := Internet2()
	inst := BuildNIPSInstance(topo, UnitRules(4), NIPSConfig{
		MaxPaths:             6,
		RuleCapacityFraction: 1,
		MatchSeed:            2,
	})
	ad := NewAdaptiveNIPS(inst, AdaptiveOptions{Horizon: 20, MaxDrop: 0.01, Seed: 3})
	if _, err := ad.Decide(); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIExtensions(t *testing.T) {
	topo := Internet2()
	tm := GravityMatrix(topo)
	sessions := GenerateSessions(topo, tm, 2000, 6)
	classes := []Class{
		{Name: "signature", CPUPerPkt: 1, MemPerItem: 400},
	}
	inst, err := BuildNIDSInstance(topo, classes, sessions, UniformCaps(topo.N(), 1e7, 1e9))
	if err != nil {
		t.Fatal(err)
	}

	// Greedy baseline is never better than the LP.
	greedy := core.GreedyPlan(inst)
	lpPlan, err := PlanNIDS(inst, NIDSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if lpPlan.Objective > greedy.Objective+1e-9 {
		t.Fatalf("LP %v worse than greedy %v", lpPlan.Objective, greedy.Objective)
	}

	// What-if provisioning runs and is sorted.
	ups, err := WhatIfUpgrades(inst, 1, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) != 2*topo.N() {
		t.Fatalf("got %d upgrade options", len(ups))
	}

	// Transition between two workloads of the same network: no transfers.
	sessions2 := GenerateSessions(topo, tm, 2500, 7)
	inst2, err := BuildNIDSInstance(topo, classes, sessions2, UniformCaps(topo.N(), 1e7, 1e9))
	if err != nil {
		t.Fatal(err)
	}
	plan2, err := PlanNIDS(inst2, NIDSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := PlanTransition(lpPlan, plan2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Transfers) != 0 {
		t.Fatalf("unexpected transfers without routing change: %d", len(tr.Transfers))
	}

	// Aggregation-budgeted planning with a loose budget matches plain.
	aggPlan, err := PlanNIDS(inst, NIDSOptions{Aggregation: &AggregationConfig{Collector: 6, BytesPerItem: 64, Budget: 1e18}})
	if err != nil {
		t.Fatal(err)
	}
	if aggPlan.Objective > lpPlan.Objective*(1+1e-6) {
		t.Fatalf("loose aggregation budget worsened objective: %v vs %v", aggPlan.Objective, lpPlan.Objective)
	}
}
