package nips

import (
	"fmt"
)

// SolveExact computes the true optimum of the NIPS MILP (Eqs. 7-14) by
// branch-and-bound over the binary enablement variables, solving the d-LP
// at each leaf (and using the full LP relaxation value as a global upper
// bound for pruning). The problem is NP-hard, so this is only feasible for
// small instances — it exists to validate the approximation algorithms
// against the genuine integer optimum rather than just the LP bound, and
// it refuses instances beyond maxExactVars binary variables.
func SolveExact(inst *Instance) (*Deployment, error) {
	const maxExactVars = 24

	// Only (rule, node) pairs on some path matter.
	onPath := make([]bool, inst.Topo.N())
	nOn := 0
	for _, path := range inst.Paths {
		for _, j := range path {
			if !onPath[j] {
				onPath[j] = true
				nOn++
			}
		}
	}
	nBin := len(inst.Rules) * nOn
	if nBin > maxExactVars {
		return nil, fmt.Errorf("nips: exact solver limited to %d binaries, instance has %d", maxExactVars, nBin)
	}
	var slots []([2]int) // (rule, node) in branch order
	for i := range inst.Rules {
		for j, on := range onPath {
			if on {
				slots = append(slots, [2]int{i, j})
			}
		}
	}

	rel, err := SolveRelaxation(inst)
	if err != nil {
		return nil, err
	}

	newDep := func() *Deployment {
		dep := &Deployment{
			E: make([][]bool, len(inst.Rules)),
			D: make([][][]float64, len(inst.Rules)),
		}
		for i := range dep.E {
			dep.E[i] = make([]bool, inst.Topo.N())
			dep.D[i] = make([][]float64, len(inst.Paths))
			for k := range inst.Paths {
				dep.D[i][k] = make([]float64, len(inst.Paths[k]))
			}
		}
		return dep
	}

	cur := newDep()
	camUsed := make([]float64, inst.Topo.N())
	var best *Deployment
	bestObj := -1.0

	var walk func(pos int) error
	walk = func(pos int) error {
		if pos == len(slots) {
			leaf := newDep()
			for i := range cur.E {
				copy(leaf.E[i], cur.E[i])
			}
			if err := ResolveLP(inst, leaf); err != nil {
				return err
			}
			if leaf.Objective > bestObj {
				bestObj = leaf.Objective
				best = leaf
			}
			return nil
		}
		// The LP relaxation bounds every completion; prune when even it
		// cannot beat the incumbent. (A coarse but sound bound: the global
		// relaxation optimum.)
		if bestObj >= rel.Objective-1e-9 {
			return nil
		}
		i, j := slots[pos][0], slots[pos][1]
		// Branch enabled first (greedier incumbents prune more).
		if camUsed[j]+inst.Rules[i].CamReq <= inst.CamCap[j]+1e-9 {
			cur.E[i][j] = true
			camUsed[j] += inst.Rules[i].CamReq
			if err := walk(pos + 1); err != nil {
				return err
			}
			camUsed[j] -= inst.Rules[i].CamReq
			cur.E[i][j] = false
		}
		return walk(pos + 1)
	}
	if err := walk(0); err != nil {
		return nil, err
	}
	if best == nil {
		best = newDep()
		best.Objective = 0
	}
	return best, nil
}
