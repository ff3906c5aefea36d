package control

import (
	"testing"

	"nwdeploy/internal/core"
	"nwdeploy/internal/hashing"
)

// syntheticPlan is a 1000-node plan without the LP: one PerIngress unit
// per node, and each node holding a 1/window slice of the window units
// nearest it — the assignment shape of a real solve, at a fleet size the
// LP cannot reach.
func syntheticPlan(n, window int) *core.Plan {
	inst := &core.Instance{
		Classes: []core.Class{{Name: "signature", Scope: core.PerIngress, Agg: core.BySource, CPUPerPkt: 1, MemPerItem: 400}},
	}
	for j := 0; j < n; j++ {
		inst.Units = append(inst.Units, core.CoordUnit{Class: 0, Key: [2]int{j, -1}, Nodes: []int{j}})
	}
	p := &core.Plan{Inst: inst, Redundancy: 1}
	for j := 0; j < n; j++ {
		m := core.NodeManifest{Node: j, Ranges: make(map[int]hashing.RangeSet, window)}
		for w := 0; w < window; w++ {
			lo := float64(w) / float64(window)
			m.Ranges[(j+w)%n] = hashing.RangeSet{{Lo: lo, Hi: lo + 1/float64(window)}}
		}
		p.Manifests = append(p.Manifests, m)
	}
	return p
}

// BenchmarkAgentSync times one agent's sync over loopback against a
// 1000-node plan: the distribute layer's unit of work without the fleet.
// v1-full-json is a rejoining agent's one-shot full fetch (a dial per
// sync); v2-delta-bin is a steady-state delta sync over the held
// connection, each op after a shed publish that changes the node's
// manifest (the publish is inside the timed loop; it copies every node's
// manifest header, sharing their assignments).
func BenchmarkAgentSync(b *testing.B) {
	const node = 17
	ctrl, err := NewController("127.0.0.1:0", 7)
	if err != nil {
		b.Fatal(err)
	}
	defer ctrl.Close()
	ctrl.UpdatePlan(syntheticPlan(1000, 8))

	b.Run("v1-full-json", func(b *testing.B) {
		a := NewAgent(ctrl.Addr(), node)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := a.Subscribe(SubscribeOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("v2-delta-bin", func(b *testing.B) {
		a := NewAgent(ctrl.Addr(), node)
		defer a.Close()
		if _, err := a.Subscribe(deltaSync); err != nil {
			b.Fatal(err)
		}
		shed := []WireAssignment{{Class: 0, Unit: [2]int{node, -1}, Ranges: []WireRange{{Lo: 0, Hi: 0.0625}}}}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%2 == 0 {
				ctrl.PublishShed(node, shed)
			} else {
				ctrl.PublishShed(node, nil)
			}
			sub, err := a.Subscribe(deltaSync)
			if err != nil {
				b.Fatal(err)
			}
			if u := sub.Last(); !u.Changed || u.Full {
				b.Fatalf("sync %d: %+v, want an applied delta", i, u)
			}
		}
	})
}
