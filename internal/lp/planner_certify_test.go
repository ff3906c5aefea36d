package lp_test

import (
	"math"
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
	warm, err := core.SolveOpts(jittered(t, inst), core.SolveOptions{WarmBasis: captured.Basis})
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

// TestPresolveKeepsAggregationOptimum solves the plan golden's tight
// aggregation LP (Internet2, three classes, a budget of 0.8 x the loose
// plan's byte-hops) with presolve off and on. Presolve moves the vertex,
// not the optimum: the objectives agree within the solver's tolerance, and
// the reduced LP's solve certifies. (A budget derived from a presolved
// loose plan, whose byte-hops are lower, makes a tighter LP with a higher
// optimum; that once passed for presolve raising the minimum.)
func TestPresolveKeepsAggregationOptimum(t *testing.T) {
	inst := aggregationInstance(t)
	agg := core.AggregationConfig{Collector: 6, BytesPerItem: 64, Budget: 1e18}
	loose, err := core.SolveOpts(inst, core.SolveOptions{Aggregation: &agg})
	if err != nil {
		t.Fatal(err)
	}
	agg.Budget = 0.8 * core.AggregationCost(inst, loose, agg)
	var tight *lp.Problem
	restore := lp.ObserveSolves(func(p *lp.Problem, _ *lp.Solution) { tight = p })
	_, err = core.SolveOpts(inst, core.SolveOptions{Aggregation: &agg})
	restore()
	if err != nil {
		t.Fatal(err)
	}

	plain, err := tight.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if plain.Status != lp.StatusOptimal {
		t.Fatalf("plain solve: status %v", plain.Status)
	}
	if err := lp.Certify(tight, plain, 1e-7); err != nil {
		t.Fatalf("plain solve: %v", err)
	}
	var inner []*lp.Solution
	var reduced *lp.Problem
	restore = lp.ObserveSolves(func(p *lp.Problem, sol *lp.Solution) {
		if sol.Duals != nil { // the reduced LP's own solve, not the mapped-back one
			reduced, inner = p, append(inner, sol)
		}
	})
	pre, err := tight.SolveOpts(lp.Options{Presolve: true})
	restore()
	if err != nil {
		t.Fatal(err)
	}
	if pre.Status != lp.StatusOptimal {
		t.Fatalf("presolved solve: status %v", pre.Status)
	}
	if len(inner) != 1 {
		t.Fatalf("presolve ran %d reduced solves with duals, want 1", len(inner))
	}
	if err := lp.Certify(reduced, inner[0], 1e-7); err != nil {
		t.Fatalf("reduced solve: %v", err)
	}
	if err := lp.PrimalFeasible(tight, pre, 1e-7); err != nil {
		t.Fatalf("presolved solution: %v", err)
	}
	if d := math.Abs(pre.Objective - plain.Objective); d > 1e-7 {
		t.Fatalf("presolved objective %.10g, plain %.10g: differ by %g", pre.Objective, plain.Objective, d)
	}
}

// aggregationInstance is the plan golden's aggregation instance: 5,000
// Internet2 gravity sessions over a signature, an HTTP and a scan class.
func aggregationInstance(t *testing.T) *core.Instance {
	t.Helper()
	topo := topology.Internet2()
	sessions := traffic.Generate(topo, traffic.Gravity(topo), traffic.GenConfig{Sessions: 5000, Seed: 77})
	classes := []core.Class{
		{Name: "signature", Scope: core.PerPath, Agg: core.BySession, CPUPerPkt: 1, MemPerItem: 400},
		{Name: "http", Scope: core.PerPath, Agg: core.BySession, Ports: []uint16{80}, CPUPerPkt: 2, MemPerItem: 600},
		{Name: "scan", Scope: core.PerIngress, Agg: core.BySource, CPUPerPkt: 0.3, MemPerItem: 120},
	}
	inst, err := core.BuildInstance(topo, classes, sessions, core.UniformCaps(topo.N(), 1e7, 1e9))
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// jittered is inst with every unit's volumes scaled by a seeded factor in
// [0.9, 1.1], as a replan sees them.
func jittered(t *testing.T, inst *core.Instance) *core.Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(9))
	pkts := make([]float64, len(inst.Units))
	items := make([]float64, len(inst.Units))
	for ui, u := range inst.Units {
		f := 1 + 0.1*(2*rng.Float64()-1)
		pkts[ui], items[ui] = u.Pkts*f, u.Items*f
	}
	out, err := inst.WithVolumes(pkts, items)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// placementInstance is the replan workload's instance: 20,000 gravity
// sessions (the topPairs heaviest pairs only, when topPairs > 0) over the
// eight standard modules.
func placementInstance(t testing.TB, topo *topology.Topology, topPairs int) *core.Instance {
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
