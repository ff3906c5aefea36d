package lp_test

import (
	"testing"

	"nwdeploy/internal/core"
	"nwdeploy/internal/lp"
	"nwdeploy/internal/topology"
)

// TestProblemBuildAllocBudget holds building the 50-node replan LP to one
// allocation per constraint (its copied terms) plus a constant for the
// Problem and its slices' growth: a Problem holds numbers only, so no
// per-variable allocation (a formatted name, say) can come back unnoticed.
func TestProblemBuildAllocBudget(t *testing.T) {
	var replan *lp.Problem
	restore := lp.ObserveSolves(func(p *lp.Problem, _ *lp.Solution) { replan = p })
	_, err := core.SolveOpts(placementInstance(t, topology.FiftyNode(), 200), core.SolveOptions{CaptureBasis: true})
	restore()
	if err != nil {
		t.Fatal(err)
	}
	const slack = 64 // New, plus the growth of the variable and row slices
	if replan.NumVars() <= replan.NumConstraints()+slack {
		t.Fatalf("%d variables, %d rows: too few variables for the gate to see a per-variable allocation", replan.NumVars(), replan.NumConstraints())
	}
	build := lp.Replay(replan)
	allocs := testing.AllocsPerRun(5, func() { build() })
	if budget := float64(replan.NumConstraints() + slack); allocs > budget {
		t.Fatalf("building a %d x %d LP allocates %v times, budget %v", replan.NumConstraints(), replan.NumVars(), allocs, budget)
	}
	t.Logf("building a %d x %d LP allocates %v times", replan.NumConstraints(), replan.NumVars(), allocs)
}
