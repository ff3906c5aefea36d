// Controller: the operational loop the paper envisions — a centralized
// operations center periodically re-optimizes NIDS responsibilities and
// distributes hash-range sampling manifests to node agents, which enforce
// them on a live connection-tracked data path.
//
//	go run ./examples/controller
//
// The demo starts a TCP controller, one agent per Internet2 node, replays
// a synthetic trace through each node's connection table and wire-form
// decider, then simulates a traffic shift: the controller re-solves the LP
// and bumps the epoch, the agents notice on their next poll and refetch,
// and the new assignment takes effect — no planner code on the nodes.
package main

import (
	"fmt"
	"log"
	"math/bits"
	"time"

	"nwdeploy/internal/bro"
	"nwdeploy/internal/conntrack"
	"nwdeploy/internal/control"
	"nwdeploy/internal/core"
	"nwdeploy/internal/topology"
	"nwdeploy/internal/traffic"
)

func main() {
	log.SetFlags(0)
	topo := topology.Internet2()
	classes := bro.Classes(bro.StandardModules()[1:])
	caps := core.UniformCaps(topo.N(), 1e7, 1e9)

	solve := func(seed int64, sessions int) (*core.Plan, []traffic.Session) {
		tm := traffic.Gravity(topo)
		trace := traffic.Generate(topo, tm, traffic.GenConfig{Sessions: sessions, Seed: seed})
		inst, err := core.BuildInstance(topo, classes, trace, caps)
		if err != nil {
			log.Fatal(err)
		}
		plan, err := core.Solve(inst, 1)
		if err != nil {
			log.Fatal(err)
		}
		return plan, trace
	}

	const hashKey = 0xfeedface
	ctrl, err := control.NewController("127.0.0.1:0", hashKey)
	if err != nil {
		log.Fatal(err)
	}
	defer ctrl.Close()
	fmt.Printf("controller listening on %s\n", ctrl.Addr())

	plan, trace := solve(1, 6000)
	ctrl.UpdatePlan(plan)
	fmt.Printf("installed plan epoch=1: objective %.4f over %d units\n\n",
		plan.Objective, len(plan.Inst.Units))

	// One agent + connection table per node.
	agents := make([]*control.Agent, topo.N())
	tables := make([]*conntrack.Table, topo.N())
	for j := range agents {
		agents[j] = control.NewAgent(ctrl.Addr(), j)
		if _, err := agents[j].Subscribe(control.SubscribeOptions{Mode: control.ModeOnce}); err != nil {
			log.Fatal(err)
		}
		tables[j] = conntrack.New(conntrack.Config{
			IdleTimeout: 2 * time.Minute,
			MaxEntries:  100000,
			HashKey:     hashKey,
		})
	}

	// Replay the trace through every node's data path.
	replay := func(trace []traffic.Session) []int {
		analyzed := make([]int, topo.N())
		paths := topo.PathMatrix()
		now := time.Now()
		for _, s := range trace {
			now = now.Add(10 * time.Millisecond)
			for _, node := range paths[s.Src][s.Dst] {
				tables[node].Update(s.Tuple, now, s.Packets, s.Bytes)
				// One Figure 3 check per session: bit c of the mask is
				// class c's verdict, as the engine reads it.
				mask, _ := agents[node].Decider().DecideMask(&s)
				analyzed[node] += bits.OnesCount64(mask)
			}
		}
		return analyzed
	}

	analyzed := replay(trace)
	fmt.Println("epoch 1 data path (per-node session-class analyses, conn-table peaks):")
	for j, n := range analyzed {
		st := tables[j].Stats()
		fmt.Printf("  %-15s analyses=%-6d conns: created=%d peak=%d evicted=%d\n",
			topo.Nodes[j].City, n, st.Created, st.PeakEntries, st.Evicted)
	}

	// Traffic shifts: re-optimize and redistribute.
	plan2, trace2 := solve(2, 9000)
	ctrl.UpdatePlan(plan2)
	refetched := 0
	for _, a := range agents {
		// Delta subscription: the agents state the epoch they hold and
		// receive only the changed ranges (v2 wire protocol).
		sub, err := a.Subscribe(control.SubscribeOptions{Mode: control.ModeIfStale, Deltas: true})
		if err != nil {
			log.Fatal(err)
		}
		if sub.Last().Changed {
			refetched++
		}
	}
	fmt.Printf("\ntraffic shifted; controller re-solved (epoch 2), %d/%d agents refetched\n",
		refetched, len(agents))

	analyzed2 := replay(trace2)
	total := 0
	for _, n := range analyzed2 {
		total += n
	}
	fmt.Printf("epoch 2 data path: %d total analyses across %d nodes (epoch on node 0: %d)\n",
		total, topo.N(), agents[0].Decider().Epoch())
}
