package nips

import (
	"fmt"
	"math"
	"testing"

	"nwdeploy/internal/topology"
)

// tinyTopology: 4 nodes in a line, so path structure is simple and the
// binary space stays enumerable.
func tinyTopology() *topology.Topology {
	nodes := []topology.Node{
		{ID: 0, Name: "A", Population: 2e6, Lat: 30, Lon: -100},
		{ID: 1, Name: "B", Population: 1e6, Lat: 32, Lon: -96},
		{ID: 2, Name: "C", Population: 1e6, Lat: 34, Lon: -92},
		{ID: 3, Name: "D", Population: 2e6, Lat: 36, Lon: -88},
	}
	t := topology.New("tiny", nodes)
	t.AddLink(0, 1, 10)
	t.AddLink(1, 2, 10)
	t.AddLink(2, 3, 10)
	return t
}

func tinyInstance(seed int64, camFrac float64, rules int) *Instance {
	return NewInstance(tinyTopology(), UnitRules(rules), Config{
		MaxPaths:             6,
		RuleCapacityFraction: camFrac,
		MatchSeed:            seed,
	})
}

func TestExactRespectsConstraintsAndBeatsRounding(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		inst := tinyInstance(seed, 0.5, 4) // 4 rules x 4 nodes = 16 binaries
		exact, err := solveExact(inst)
		if err != nil {
			t.Fatal(err)
		}
		if err := exact.Verify(inst); err != nil {
			t.Fatalf("seed %d: exact solution infeasible: %v", seed, err)
		}
		rel, err := SolveRelaxation(inst)
		if err != nil {
			t.Fatal(err)
		}
		if exact.Objective > rel.Objective+1e-6 {
			t.Fatalf("seed %d: exact %v above LP bound %v", seed, exact.Objective, rel.Objective)
		}
		// Every approximation variant is bounded by the exact optimum.
		for _, v := range []Variant{VariantBasic, VariantRoundLP, VariantRoundGreedyLP} {
			dep, err := SolveFromRelaxation(inst, rel, SolveOptions{Variant: v, Iters: 3, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			if dep.Objective > exact.Objective+1e-6 {
				t.Fatalf("seed %d: %v objective %v exceeds exact optimum %v",
					seed, v, dep.Objective, exact.Objective)
			}
		}
	}
}

// The same bound on Internet2's four heaviest paths, the instance the
// public facade's planner is exercised on.
func TestExactBoundsGreedyVariantOnInternet2(t *testing.T) {
	inst := NewInstance(topology.Internet2(), UnitRules(2), Config{MaxPaths: 4, RuleCapacityFraction: 0.5, MatchSeed: 1})
	exact, err := solveExact(inst)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveDetailed(inst, SolveOptions{Variant: VariantRoundGreedyLP, Iters: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deployment.Objective > exact.Objective+1e-6 {
		t.Fatalf("approximation %v beat exact %v", res.Deployment.Objective, exact.Objective)
	}
}

func TestGreedyVariantNearExactOptimum(t *testing.T) {
	// The headline claim, validated against the *true* optimum rather than
	// the LP bound: rounding+greedy+LP lands within a few percent.
	worst := 1.0
	for _, seed := range []int64{10, 20, 30, 40} {
		inst := tinyInstance(seed, 0.5, 4)
		gap, exact, approx, err := ApproximationGap(inst, VariantRoundGreedyLP, 5, seed)
		if err != nil {
			t.Fatal(err)
		}
		if exact.Objective <= 0 {
			t.Fatalf("seed %d: exact optimum is zero; instance degenerate", seed)
		}
		if gap < worst {
			worst = gap
		}
		if gap > 1+1e-6 {
			t.Fatalf("seed %d: approximation %v beat the 'exact' optimum %v", seed, approx.Objective, exact.Objective)
		}
	}
	if worst < 0.9 {
		t.Fatalf("greedy variant at %.3f of the exact optimum, want >= 0.9", worst)
	}
}

func TestExactRefusesLargeInstances(t *testing.T) {
	inst := tinyInstance(1, 0.5, 10) // 40 binaries
	if _, err := solveExact(inst); err == nil {
		t.Fatal("expected size refusal")
	}
}

func TestExactZeroCapacity(t *testing.T) {
	inst := tinyInstance(1, 0, 4) // no TCAM anywhere
	exact, err := solveExact(inst)
	if err != nil {
		t.Fatal(err)
	}
	if exact.Objective != 0 {
		t.Fatalf("objective %v with zero TCAM, want 0", exact.Objective)
	}
}

// ApproximationGap runs the exact solver and a rounding variant on the
// same instance and returns approx/exact (1 means the approximation found
// a true optimum). Intended for tests and small-scale validation.
func ApproximationGap(inst *Instance, variant Variant, iters int, seed int64) (gap float64, exact, approx *Deployment, err error) {
	exact, err = solveExact(inst)
	if err != nil {
		return 0, nil, nil, err
	}
	approx, _, err = Solve(inst, SolveOptions{Variant: variant, Iters: iters, Seed: seed, Workers: 1})
	if err != nil {
		return 0, nil, nil, err
	}
	if exact.Objective == 0 {
		if approx.Objective == 0 {
			return 1, exact, approx, nil
		}
		return math.Inf(1), exact, approx, nil
	}
	return approx.Objective / exact.Objective, exact, approx, nil
}

// solveExact computes the true optimum of the NIPS MILP (Eqs. 7-14) by
// branch-and-bound over the binary enablement variables, solving the d-LP
// at each leaf (and using the full LP relaxation value as a global upper
// bound for pruning). The problem is NP-hard, so this is only feasible for
// small instances — it exists to validate the approximation algorithms
// against the genuine integer optimum rather than just the LP bound, and
// it refuses instances beyond maxExactVars binary variables.
func solveExact(inst *Instance) (*Deployment, error) {
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
			if err := resolveLP(inst, leaf, nil); err != nil {
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
