package lp_test

import (
	"math/rand"
	"testing"

	"nwdeploy/internal/bro"
	"nwdeploy/internal/core"
	"nwdeploy/internal/lp"
	"nwdeploy/internal/nips"
	"nwdeploy/internal/online"
	"nwdeploy/internal/topology"
	"nwdeploy/internal/traffic"
)

// TestCertifyPlannerLPs holds every LP builder in the repository, far past
// what FuzzSolve's vertex enumeration can reach, to the optimality
// certificate: the 50-node replan LP solved cold (presolved), with basis
// capture and warm after a volume jitter; the GÉANT 8-class placement LP;
// the Internet2 placement LP under a loose and a tight aggregation budget;
// the NIPS pipeline's relaxation and its LP re-solve; and one online.Run
// epoch's Lambda LPs (the perturbed decision and the hindsight benchmark).
// Every solve the lp package sees is checked: one with duals must certify,
// and a presolved one (no duals) must be primal feasible, its reduced LP
// certified as a solve of its own.
func TestCertifyPlannerLPs(t *testing.T) {
	type solve struct {
		p   *lp.Problem
		sol *lp.Solution
	}
	var seen []solve
	defer lp.ObserveSolves(func(p *lp.Problem, sol *lp.Solution) { seen = append(seen, solve{p, sol}) })()
	check := func(name string, wantCertified int) {
		t.Helper()
		certified := 0
		for i, s := range seen {
			if s.sol.Duals == nil {
				if err := lp.PrimalFeasible(s.p, s.sol, 1e-7); err != nil {
					t.Errorf("%s: solve %d (presolved): %v", name, i, err)
				}
				continue
			}
			if err := lp.Certify(s.p, s.sol, 1e-7); err != nil {
				t.Errorf("%s: solve %d (%d x %d): %v", name, i, s.p.NumConstraints(), s.p.NumVars(), err)
			}
			certified++
		}
		if certified != wantCertified {
			t.Errorf("%s: %d solves certified, want %d", name, certified, wantCertified)
		}
		seen = seen[:0]
	}

	inst := placementInstance(t, topology.FiftyNode(), 200)
	if _, err := core.SolveOpts(inst, core.SolveOptions{}); err != nil {
		t.Fatal(err)
	}
	check("replan/cold", 1)
	captured, err := core.SolveOpts(inst, core.SolveOptions{CaptureBasis: true})
	if err != nil {
		t.Fatal(err)
	}
	check("replan/capture", 1)
	rng := rand.New(rand.NewSource(9))
	pkts := make([]float64, len(inst.Units))
	items := make([]float64, len(inst.Units))
	for ui, u := range inst.Units {
		f := 1 + 0.1*(2*rng.Float64()-1)
		pkts[ui], items[ui] = u.Pkts*f, u.Items*f
	}
	jittered, err := inst.WithVolumes(pkts, items)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := core.SolveOpts(jittered, core.SolveOptions{WarmBasis: captured.Basis})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.Phase1Iters != 0 {
		t.Fatalf("warm replan fell back cold (%d phase-1 pivots)", warm.Stats.Phase1Iters)
	}
	check("replan/warm", 1)

	if _, err := core.SolveOpts(placementInstance(t, topology.Geant(), 0), core.SolveOptions{}); err != nil {
		t.Fatal(err)
	}
	check("geant_8cls", 1)

	i2 := placementInstance(t, topology.Internet2(), 0)
	agg := core.AggregationConfig{Collector: 6, BytesPerItem: 64, Budget: 1e18}
	loose, err := core.SolveOpts(i2, core.SolveOptions{Aggregation: &agg})
	if err != nil {
		t.Fatal(err)
	}
	check("aggregation/loose", 1)
	agg.Budget = 0.8 * core.AggregationCost(i2, loose, agg)
	if _, err := core.SolveOpts(i2, core.SolveOptions{Aggregation: &agg}); err != nil {
		t.Fatal(err)
	}
	check("aggregation/tight", 1)

	nipsInst := nips.NewInstance(topology.FiftyNode(), nips.UnitRules(15), nips.Config{
		MaxPaths: 30, RuleCapacityFraction: 0.1, MatchSeed: 1,
	})
	if _, _, err := nips.Solve(nipsInst, nips.SolveOptions{Variant: nips.VariantRoundGreedyLP, Iters: 1, Workers: 1, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	check("nips/relaxation+resolve", 2)

	if _, err := online.Run(nipsInst, online.RunConfig{Epochs: 1, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	check("online/lambda", 2)
}

// placementInstance is the replan workload's instance: 20,000 gravity
// sessions (the topPairs heaviest pairs only, when topPairs > 0) over the
// eight standard modules.
func placementInstance(t *testing.T, topo *topology.Topology, topPairs int) *core.Instance {
	t.Helper()
	m := traffic.Gravity(topo)
	if topPairs > 0 {
		kept := make(traffic.Matrix, len(m))
		for a := range kept {
			kept[a] = make([]float64, len(m[a]))
		}
		for _, p := range m.TopPairs(topPairs) {
			kept[p[0]][p[1]] = m[p[0]][p[1]]
		}
		m = kept
	}
	sessions := traffic.Generate(topo, m, traffic.GenConfig{Sessions: 20_000, Seed: 5})
	inst, err := core.BuildInstance(topo, bro.Classes(bro.StandardModules()[1:]), sessions, core.UniformCaps(topo.N(), 1e9, 1e12))
	if err != nil {
		t.Fatal(err)
	}
	return inst
}
