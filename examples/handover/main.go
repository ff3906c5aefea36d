// Handover: the paper's Section 5 operational concerns, end to end. A
// link is added to the network, shortest paths move, and the re-optimized
// plan leaves some nodes holding connection state for traffic they can no
// longer see. PlanTransition computes what each node retains during the
// drain window and which hash ranges of live state must migrate — then a
// what-if analysis answers where extra capacity would help most.
//
//	go run ./examples/handover
package main

import (
	"fmt"
	"log"

	"nwdeploy"
	"nwdeploy/internal/core"
	"nwdeploy/internal/topology"
	"nwdeploy/internal/traffic"
)

func buildTopo(shortcut bool) *topology.Topology {
	nodes := []topology.Node{
		{ID: 0, Name: "A", City: "west-gw", Population: 3e6, Lat: 37, Lon: -122},
		{ID: 1, Name: "B", City: "core-1", Population: 5e5, Lat: 39, Lon: -110},
		{ID: 2, Name: "C", City: "core-2", Population: 5e5, Lat: 40, Lon: -95},
		{ID: 3, Name: "D", City: "east-gw", Population: 4e6, Lat: 41, Lon: -74},
		{ID: 4, Name: "E", City: "south-gw", Population: 2e6, Lat: 30, Lon: -90},
	}
	t := topology.New("handover-demo", nodes)
	t.AddLink(0, 1, 10)
	t.AddLink(1, 2, 10)
	t.AddLink(2, 3, 10)
	t.AddLink(2, 4, 8)
	if shortcut {
		t.AddLink(0, 3, 12) // new express link: A<->D no longer crosses B, C
	}
	return t
}

func main() {
	log.SetFlags(0)
	classes := []core.Class{
		{Name: "signature", Scope: core.PerPath, Agg: core.BySession, CPUPerPkt: 1, MemPerItem: 400},
		{Name: "scan", Scope: core.PerIngress, Agg: core.BySource, CPUPerPkt: 0.3, MemPerItem: 120},
	}
	caps := core.UniformCaps(5, 1e6, 1e9)

	before := buildTopo(false)
	after := buildTopo(true)
	tm := traffic.Gravity(before)
	sessions := traffic.Generate(before, tm, traffic.GenConfig{Sessions: 4000, Seed: 3})

	oldInst, err := core.BuildInstance(before, classes, sessions, caps)
	if err != nil {
		log.Fatal(err)
	}
	oldPlan, err := core.Solve(oldInst, 1)
	if err != nil {
		log.Fatal(err)
	}
	newInst, err := core.BuildInstance(after, classes, sessions, caps)
	if err != nil {
		log.Fatal(err)
	}
	newPlan, err := core.Solve(newInst, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("before: max load %.4f   after new A-D link: max load %.4f\n\n",
		oldPlan.Objective, newPlan.Objective)

	tr, err := nwdeploy.PlanTransition(oldPlan, newPlan)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("transition: %d retained assignments (drain window), %d state transfers (%.3f hash-space width)\n",
		len(tr.Retentions), len(tr.Transfers), tr.TransferredWidth())
	for _, x := range tr.Transfers {
		fmt.Printf("  class=%s unit=%v migrate %v from %s to %s\n",
			classes[x.Class].Name, x.Unit, x.Range,
			before.Nodes[x.From].Name, before.Nodes[x.To].Name)
	}

	// Where would more hardware help now?
	ups, err := nwdeploy.WhatIfUpgrades(newInst, 1, 2.0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nwhat-if: doubling one node's capacity")
	for _, u := range ups[:3] {
		fmt.Printf("  node %s %s: objective %.4f (gain %.4f)\n",
			after.Nodes[u.Node].Name, u.Resource, u.Objective, u.Gain)
	}
}
