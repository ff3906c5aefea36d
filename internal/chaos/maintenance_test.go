package chaos

import (
	"reflect"
	"testing"
)

func TestRollingDrainsCoversFleetOnceBeforeRepeat(t *testing.T) {
	cfg := DrainConfig{Epochs: 20, Nodes: 5, Group: 1, Dwell: 2, Gap: 1}
	p := RollingDrains(cfg)
	seen := map[int]int{}
	for e, ds := range p.Drains {
		if len(ds) > cfg.Group {
			t.Fatalf("epoch %d drains %d nodes, group is %d", e, len(ds), cfg.Group)
		}
		for _, j := range ds {
			seen[j]++
		}
	}
	// 20 epochs / (dwell 2 + gap 1) = 6 full windows + 2 epochs: nodes 0-4
	// each drained once before node 0 comes around again.
	for j := 0; j < cfg.Nodes; j++ {
		if seen[j] == 0 {
			t.Fatalf("node %d never drained across the wave", j)
		}
	}
	if seen[0] < 2 {
		t.Fatal("wave never wrapped around the fleet")
	}
	// Gap epochs drain nothing.
	if len(p.Drains[2]) != 0 {
		t.Fatalf("gap epoch 2 drains %v", p.Drains[2])
	}
	// Pure function: identical config, identical plan.
	if !reflect.DeepEqual(p, RollingDrains(cfg)) {
		t.Fatal("RollingDrains is not a pure function of its config")
	}
}

func TestRollingDrainsGroupAndStart(t *testing.T) {
	p := RollingDrains(DrainConfig{Epochs: 8, Nodes: 6, Group: 2, Dwell: 1, Start: 3})
	for e := 0; e < 3; e++ {
		if len(p.Drains[e]) != 0 {
			t.Fatalf("epoch %d before Start drains %v", e, p.Drains[e])
		}
	}
	if want := []int{0, 1}; !reflect.DeepEqual(p.Drains[3], want) {
		t.Fatalf("first window drains %v, want %v", p.Drains[3], want)
	}
	if want := []int{2, 3}; !reflect.DeepEqual(p.Drains[4], want) {
		t.Fatalf("second window drains %v, want %v", p.Drains[4], want)
	}
}

func TestRollingDrainsEdgeConfigs(t *testing.T) {
	// Zero nodes: empty plan, no panic.
	p := RollingDrains(DrainConfig{Epochs: 4})
	for e, ds := range p.Drains {
		if len(ds) != 0 {
			t.Fatalf("zero-node plan drains %v at epoch %d", ds, e)
		}
	}
	// Group larger than the fleet clamps to the fleet without duplicates.
	p = RollingDrains(DrainConfig{Epochs: 2, Nodes: 3, Group: 5})
	if want := []int{0, 1, 2}; !reflect.DeepEqual(p.Drains[0], want) {
		t.Fatalf("oversized group drains %v, want %v", p.Drains[0], want)
	}
}
