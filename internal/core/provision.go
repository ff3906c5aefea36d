package core

import (
	"fmt"
	"math"
	"sort"
)

// Resource names a provisionable node resource.
type Resource int

const (
	// ResourceCPU is processing capacity.
	ResourceCPU Resource = iota
	// ResourceMem is memory capacity.
	ResourceMem
)

// String names the resource.
func (r Resource) String() string {
	if r == ResourceCPU {
		return "cpu"
	}
	return "mem"
}

// Upgrade is one what-if provisioning result: the effect of multiplying a
// single node's capacity for one resource by the given factor. This
// implements the paper's Section 5 "Provisioning and Upgrades" extension:
// "where should an administrator add more resources or augment existing
// deployments with more powerful hardware".
type Upgrade struct {
	Node     int
	Resource Resource
	Factor   float64
	// Objective is the re-optimized min-max load after the upgrade.
	Objective float64
	// Gain is the reduction relative to the baseline objective (>= 0).
	Gain float64
}

// WhatIfUpgrades evaluates upgrading each node's CPU and memory capacity
// by the given factor (> 1), re-solving the placement LP for every
// candidate, and returns the options sorted by decreasing gain.
//
// Candidates are screened first: upgrading a node whose load sits strictly
// below the bottleneck cannot reduce the max load, so only nodes within
// tolerance of the baseline objective are re-solved; the rest are reported
// with zero gain. The screening is exact because enlarging a non-binding
// capacity leaves the optimal basis feasible and the objective unchanged.
func WhatIfUpgrades(inst *Instance, r int, factor float64) ([]Upgrade, error) {
	if factor <= 1 {
		return nil, fmt.Errorf("core: upgrade factor %v must exceed 1", factor)
	}
	base, err := Solve(inst, r)
	if err != nil {
		return nil, fmt.Errorf("core: baseline solve: %w", err)
	}
	cpu, mem := PerNodeLoads(inst, base)

	const tol = 1e-6
	var out []Upgrade
	for node := 0; node < inst.Topo.N(); node++ {
		for _, res := range []Resource{ResourceCPU, ResourceMem} {
			up := Upgrade{Node: node, Resource: res, Factor: factor, Objective: base.Objective}
			binding := false
			switch res {
			case ResourceCPU:
				binding = cpu[node] >= base.Objective-tol
			case ResourceMem:
				binding = mem[node] >= base.Objective-tol
			}
			if binding {
				caps := make([]NodeResources, len(inst.Caps))
				copy(caps, inst.Caps)
				switch res {
				case ResourceCPU:
					caps[node].CPU *= factor
				case ResourceMem:
					caps[node].Mem *= factor
				}
				upgraded := &Instance{
					Topo:    inst.Topo,
					Classes: inst.Classes,
					Units:   inst.Units,
					Caps:    caps,
					unitIdx: inst.unitIdx,
				}
				plan, err := Solve(upgraded, r)
				if err != nil {
					return nil, fmt.Errorf("core: what-if node %d %v: %w", node, res, err)
				}
				up.Objective = plan.Objective
				up.Gain = math.Max(0, base.Objective-plan.Objective)
			}
			out = append(out, up)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Gain != out[j].Gain {
			return out[i].Gain > out[j].Gain
		}
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].Resource < out[j].Resource
	})
	return out, nil
}
