package core

import (
	"math"
	"testing"

	"nwdeploy/internal/topology"
	"nwdeploy/internal/traffic"
)

func TestWhatIfUpgradesFindsBottleneck(t *testing.T) {
	// The best upgrade must target a node whose load is at the optimum's
	// bottleneck: upgrading anything else cannot reduce the max load. Note
	// that *weakening* a node does not make it the bottleneck — the LP
	// simply routes analysis around it — so the binding node must be
	// discovered from the solved plan, not assumed.
	topo := topology.Internet2()
	tm := traffic.Gravity(topo)
	sessions := traffic.Generate(topo, tm, traffic.GenConfig{Sessions: 4000, Seed: 3})
	classes := []Class{
		{Name: "signature", Scope: PerPath, Agg: BySession, CPUPerPkt: 1, MemPerItem: 400},
	}
	caps := UniformCaps(topo.N(), 1e7, 1e12)
	inst, err := BuildInstance(topo, classes, sessions, caps)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Solve(inst, 1)
	if err != nil {
		t.Fatal(err)
	}
	cpu, _ := PerNodeLoads(inst, base)

	ups, err := WhatIfUpgrades(inst, 1, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) != 2*topo.N() {
		t.Fatalf("got %d options, want %d", len(ups), 2*topo.N())
	}
	best := ups[0]
	if best.Gain > 0 {
		if cpu[best.Node] < base.Objective-1e-6 {
			t.Fatalf("best upgrade targets node %d with load %v below the bottleneck %v",
				best.Node, cpu[best.Node], base.Objective)
		}
		if best.Resource != ResourceCPU {
			t.Fatalf("CPU-bound instance, but best upgrade is %v", best.Resource)
		}
	}
	// Sorted by gain.
	for i := 1; i < len(ups); i++ {
		if ups[i].Gain > ups[i-1].Gain+1e-12 {
			t.Fatalf("upgrades not sorted by gain at %d", i)
		}
	}
	// Non-binding nodes report zero gain and the baseline objective.
	zeroGains := 0
	for _, u := range ups {
		if u.Gain == 0 {
			zeroGains++
		}
	}
	if zeroGains == 0 {
		t.Fatal("expected most non-bottleneck options to have zero gain")
	}
}

func TestBestUpgrade(t *testing.T) {
	topo := topology.Internet2()
	tm := traffic.Gravity(topo)
	sessions := traffic.Generate(topo, tm, traffic.GenConfig{Sessions: 3000, Seed: 4})
	classes := []Class{
		{Name: "signature", Scope: PerPath, Agg: BySession, CPUPerPkt: 1, MemPerItem: 400},
	}
	inst, err := BuildInstance(topo, classes, sessions, UniformCaps(topo.N(), 1e7, 1e9))
	if err != nil {
		t.Fatal(err)
	}
	up, ok, err := BestUpgrade(inst, 1, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if ok && up.Gain <= 0 {
		t.Fatalf("ok=true with nonpositive gain: %+v", up)
	}
	if _, err := WhatIfUpgrades(inst, 1, 1.0); err == nil {
		t.Fatal("expected error for factor <= 1")
	}
}

func TestUpgradeGainIsRealizable(t *testing.T) {
	// The reported post-upgrade objective must equal a fresh solve on the
	// upgraded instance.
	topo := topology.Internet2()
	tm := traffic.Gravity(topo)
	sessions := traffic.Generate(topo, tm, traffic.GenConfig{Sessions: 3000, Seed: 5})
	classes := []Class{
		{Name: "signature", Scope: PerPath, Agg: BySession, CPUPerPkt: 1, MemPerItem: 400},
		{Name: "scan", Scope: PerIngress, Agg: BySource, CPUPerPkt: 0.5, MemPerItem: 100},
	}
	inst, err := BuildInstance(topo, classes, sessions, UniformCaps(topo.N(), 1e7, 1e9))
	if err != nil {
		t.Fatal(err)
	}
	ups, err := WhatIfUpgrades(inst, 1, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	best := ups[0]
	if best.Gain == 0 {
		t.Skip("no beneficial upgrade in this configuration")
	}
	caps := make([]NodeResources, len(inst.Caps))
	copy(caps, inst.Caps)
	if best.Resource == ResourceCPU {
		caps[best.Node].CPU *= best.Factor
	} else {
		caps[best.Node].Mem *= best.Factor
	}
	inst2, err := BuildInstance(topo, classes, sessions, caps)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Solve(inst2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(plan.Objective-best.Objective) > 1e-6*(1+plan.Objective) {
		t.Fatalf("reported objective %v, fresh solve %v", best.Objective, plan.Objective)
	}
}

func TestResourceString(t *testing.T) {
	if ResourceCPU.String() != "cpu" || ResourceMem.String() != "mem" {
		t.Fatal("resource names wrong")
	}
}

// BestUpgrade returns the single most valuable upgrade option, or ok=false
// when no single-node upgrade reduces the bottleneck (the max load is set
// by structure, e.g. an ingress-pinned class at its only eligible node
// whose capacity already dwarfs demand).
func BestUpgrade(inst *Instance, r int, factor float64) (Upgrade, bool, error) {
	ups, err := WhatIfUpgrades(inst, r, factor)
	if err != nil {
		return Upgrade{}, false, err
	}
	if len(ups) == 0 || ups[0].Gain <= 0 {
		return Upgrade{}, false, nil
	}
	return ups[0], true, nil
}
