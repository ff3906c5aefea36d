package lp_test

import (
	"testing"

	"nwdeploy/internal/core"
	"nwdeploy/internal/lp"
	"nwdeploy/internal/nips"
	"nwdeploy/internal/topology"
)

// TestKernelsMatchReference steps the simplex under the reference-kernel
// oracle (kernels_ref_test.go): at every pricing step the block-bounded
// price must choose the column and direction of a full scan, every BTRAN
// must give the full reverse walk's vector and every FTRAN the full forward
// walk's, bit for bit, with its nonzeros in the same order, and every ratio
// test must walk its FTRAN's rows in sorted order. The LPs: the solve golden's 200 random boxed
// LPs, cold and then warm from their own basis; Beale's cycling LP (which
// the large-pivot tie-break steers out of its cycle before Bland's rule is
// needed); the golden's 50 x 600 deployment LP, whose degeneracy streak
// does hand pricing to Bland's rule; the 50-node replan LP cold
// (presolved), captured, and warm after a volume jitter; and the NIPS
// relaxation with its LP re-solve.
func TestKernelsMatchReference(t *testing.T) {
	checks, restore := lp.CheckKernels(t.Fatalf)
	defer restore()
	solve := func(name string, p *lp.Problem, opts lp.Options) *lp.Solution {
		t.Helper()
		sol, err := p.SolveOpts(opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return sol
	}

	for _, p := range lp.GoldenRandomLPs() {
		if sol := solve("random", p, lp.Options{}); sol.Status == lp.StatusOptimal {
			solve("random/warm", p, lp.Options{WarmBasis: sol.Basis})
		}
	}

	solve("beale", lp.BealeLP(), lp.Options{})
	if sol := solve("deployment", lp.DeploymentLP(50, 600, 7), lp.Options{}); sol.Stats.BlandActivations == 0 || checks.Bland == 0 {
		t.Fatalf("the deployment LP priced %d times by Bland's rule (%d activations), want some", checks.Bland, sol.Stats.BlandActivations)
	}

	inst := placementInstance(t, topology.FiftyNode(), 200)
	if _, err := core.SolveOpts(inst, core.SolveOptions{}); err != nil {
		t.Fatal(err)
	}
	captured, err := core.SolveOpts(inst, core.SolveOptions{CaptureBasis: true})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := core.SolveOpts(jittered(t, inst), core.SolveOptions{WarmBasis: captured.Basis})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.Phase1Iters != 0 {
		t.Fatalf("warm replan fell back cold (%d phase-1 pivots)", warm.Stats.Phase1Iters)
	}

	nipsInst := nips.NewInstance(topology.FiftyNode(), nips.UnitRules(15), nips.Config{
		MaxPaths: 30, RuleCapacityFraction: 0.1, MatchSeed: 1,
	})
	if _, _, err := nips.Solve(nipsInst, nips.SolveOptions{Variant: nips.VariantRoundGreedyLP, Iters: 1, Workers: 1, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if checks.Dantzig == 0 || checks.Btran == 0 || checks.Ratio == 0 {
		t.Fatalf("the oracle compared %d Dantzig pricing steps, %d BTRANs and %d ratio tests, want some of each", checks.Dantzig, checks.Btran, checks.Ratio)
	}
	for _, site := range []string{"step", "factor", "refresh"} {
		if checks.Ftran[site] == 0 {
			t.Fatalf("the oracle compared no FTRAN from %s (by caller: %v)", site, checks.Ftran)
		}
	}
	t.Logf("compared %d Dantzig and %d Bland pricing steps, %d BTRANs, %d ratio tests, FTRANs by caller %v",
		checks.Dantzig, checks.Bland, checks.Btran, checks.Ratio, checks.Ftran)
}
