package lp

import (
	"math"
	"math/rand"
	"testing"
)

// placementLike builds an LP with the shape of the deployment planner's
// NIDS formulation: a min-max load objective over fractional unit
// assignments with per-unit coverage equalities and per-node capacity
// rows. vols perturbs the per-unit volumes, which changes only the
// numeric data, never the shape — the warm-start contract's domain.
func placementLike(units, nodes int, vols []float64) *Problem {
	p := New(Minimize)
	lambda := p.AddVar(1, 0, Inf())
	rng := rand.New(rand.NewSource(5)) // structure only; identical across calls
	loads := make([][]Term, nodes)
	for u := 0; u < units; u++ {
		cover := make([]Term, 0, 3)
		for k := 0; k < 3; k++ {
			node := (u + k*2) % nodes
			v := p.AddVar(0, 0, 1)
			cover = append(cover, Term{Var: v, Coef: 1})
			w := vols[u] * (0.5 + rng.Float64())
			loads[node] = append(loads[node], Term{Var: v, Coef: w})
		}
		p.AddConstraint(cover, EQ, 1)
	}
	for j := 0; j < nodes; j++ {
		if len(loads[j]) == 0 {
			continue
		}
		terms := append([]Term{{Var: lambda, Coef: -1}}, loads[j]...)
		p.AddConstraint(terms, LE, 0)
	}
	return p
}

func testVols(units int, scale func(int) float64) []float64 {
	vols := make([]float64, units)
	for u := range vols {
		vols[u] = (1 + float64(u%7)) * scale(u)
	}
	return vols
}

func TestWarmStartSameProblemNeedsNoPhase1(t *testing.T) {
	vols := testVols(40, func(int) float64 { return 1 })
	cold, err := placementLike(40, 8, vols).Solve()
	if err != nil {
		t.Fatal(err)
	}
	requireOptimal(t, cold)
	if cold.Basis == nil {
		t.Fatal("optimal non-presolved solve carries no Basis")
	}

	warm, err := placementLike(40, 8, vols).SolveOpts(Options{WarmBasis: cold.Basis})
	if err != nil {
		t.Fatal(err)
	}
	requireOptimal(t, warm)
	if !near(warm.Objective, cold.Objective) {
		t.Fatalf("warm objective %v != cold %v", warm.Objective, cold.Objective)
	}
	if warm.Stats.Phase1Iters != 0 {
		t.Fatalf("warm solve spent %d phase-1 iterations, want 0", warm.Stats.Phase1Iters)
	}
	// Restarting at the optimum should need at most a re-verification pass.
	if warm.Iters > 2 {
		t.Fatalf("warm solve of the identical problem took %d iterations", warm.Iters)
	}
}

func TestWarmStartPerturbedMatchesColdWithFewerIters(t *testing.T) {
	base := testVols(60, func(int) float64 { return 1 })
	first, err := placementLike(60, 10, base).Solve()
	if err != nil {
		t.Fatal(err)
	}
	requireOptimal(t, first)

	// Small multiplicative drift, as between two traffic-report epochs.
	drifted := testVols(60, func(u int) float64 { return 1 + 0.05*math.Sin(float64(u)) })
	cold, err := placementLike(60, 10, drifted).Solve()
	if err != nil {
		t.Fatal(err)
	}
	requireOptimal(t, cold)
	warm, err := placementLike(60, 10, drifted).SolveOpts(Options{WarmBasis: first.Basis})
	if err != nil {
		t.Fatal(err)
	}
	requireOptimal(t, warm)

	if !near(warm.Objective, cold.Objective) {
		t.Fatalf("warm objective %v != cold %v", warm.Objective, cold.Objective)
	}
	if warm.Stats.Phase1Iters != 0 {
		t.Fatalf("warm solve spent %d phase-1 iterations, want 0", warm.Stats.Phase1Iters)
	}
	if warm.Iters >= cold.Iters {
		t.Fatalf("warm solve took %d iterations, cold %d — warm start bought nothing", warm.Iters, cold.Iters)
	}
	// The placement LP is degenerate, so warm and cold may stop at different
	// optimal bases carrying different — equally valid — dual vectors; dual
	// values are not comparable elementwise here. Duals must still be
	// extracted, one per row.
	if len(warm.Duals) != len(cold.Duals) {
		t.Fatalf("warm duals %d rows, cold %d", len(warm.Duals), len(cold.Duals))
	}
}

func TestWarmStartShapeMismatchFallsBackCold(t *testing.T) {
	vols := testVols(20, func(int) float64 { return 1 })
	donor, err := placementLike(20, 6, vols).Solve()
	if err != nil {
		t.Fatal(err)
	}
	requireOptimal(t, donor)

	// A differently shaped problem must reject the basis and still solve.
	other := placementLike(25, 6, testVols(25, func(int) float64 { return 2 }))
	coldRef, err := placementLike(25, 6, testVols(25, func(int) float64 { return 2 })).Solve()
	if err != nil {
		t.Fatal(err)
	}
	sol, err := other.SolveOpts(Options{WarmBasis: donor.Basis})
	if err != nil {
		t.Fatal(err)
	}
	requireOptimal(t, sol)
	if !near(sol.Objective, coldRef.Objective) {
		t.Fatalf("fallback objective %v != cold %v", sol.Objective, coldRef.Objective)
	}
}

func TestWarmStartInfeasibleBasisFallsBackCold(t *testing.T) {
	// The donor optimum sits at x=4 (binding c1). Tightening c1's rhs to 1
	// makes that basis primal-infeasible for the new data; the solve must
	// fall back cold and still find the new optimum.
	build := func(rhs float64) *Problem {
		p := New(Maximize)
		x := p.AddVar(3, 0, Inf())
		y := p.AddVar(5, 0, Inf())
		p.AddConstraint([]Term{{x, 1}}, LE, rhs)
		p.AddConstraint([]Term{{y, 2}}, LE, 12)
		p.AddConstraint([]Term{{x, 3}, {y, 2}}, GE, 6)
		return p
	}
	donor, err := build(4).Solve()
	if err != nil {
		t.Fatal(err)
	}
	requireOptimal(t, donor)

	cold, err := build(1).Solve()
	if err != nil {
		t.Fatal(err)
	}
	requireOptimal(t, cold)
	warm, err := build(1).SolveOpts(Options{WarmBasis: donor.Basis})
	if err != nil {
		t.Fatal(err)
	}
	requireOptimal(t, warm)
	if !near(warm.Objective, cold.Objective) {
		t.Fatalf("objective %v != cold %v", warm.Objective, cold.Objective)
	}
}

func TestWarmStartWithBoundedVariablesAtUpper(t *testing.T) {
	// Optimum rests several variables at their upper bounds, exercising the
	// AtUpper restoration path.
	build := func(cap float64) *Problem {
		p := New(Maximize)
		var terms []Term
		for i := 0; i < 6; i++ {
			v := p.AddVar(float64(i+1), 0, 2)
			terms = append(terms, Term{Var: v, Coef: 1})
		}
		p.AddConstraint(terms, LE, cap)
		return p
	}
	donor, err := build(7).Solve()
	if err != nil {
		t.Fatal(err)
	}
	requireOptimal(t, donor)
	if len(donor.Basis.AtUpper) == 0 {
		t.Fatal("test premise broken: no variables at upper bound")
	}
	cold, err := build(8).Solve()
	if err != nil {
		t.Fatal(err)
	}
	warm, err := build(8).SolveOpts(Options{WarmBasis: donor.Basis})
	if err != nil {
		t.Fatal(err)
	}
	requireOptimal(t, warm)
	if !near(warm.Objective, cold.Objective) {
		t.Fatalf("objective %v != cold %v", warm.Objective, cold.Objective)
	}
	if warm.Stats.Phase1Iters != 0 {
		t.Fatalf("warm solve spent %d phase-1 iterations", warm.Stats.Phase1Iters)
	}
}

func TestPresolvedSolutionCarriesNoBasis(t *testing.T) {
	p := New(Minimize)
	x := p.AddVar(1, 0, 10)
	y := p.AddVar(2, 0, 10)
	p.AddConstraint([]Term{{x, 1}}, EQ, 3)
	p.AddConstraint([]Term{{x, 1}, {y, 1}}, GE, 5)
	sol, err := p.SolveOpts(Options{Presolve: true})
	if err != nil {
		t.Fatal(err)
	}
	requireOptimal(t, sol)
	if sol.Basis != nil {
		t.Fatal("presolved solve exported a Basis in the wrong column space")
	}
}

func TestBasisClone(t *testing.T) {
	b := &Basis{Cols: 5, Rows: 2, Basic: []int{0, 3}, AtUpper: []int{1}}
	c := b.Clone()
	c.Basic[0] = 9
	c.AtUpper[0] = 9
	if b.Basic[0] != 0 || b.AtUpper[0] != 1 {
		t.Fatal("Clone shares backing arrays with the original")
	}
	if (*Basis)(nil).Clone() != nil {
		t.Fatal("nil Clone must stay nil")
	}
}

// BenchmarkWarmVsColdReplan measures the replan speedup the cluster's
// drift loop relies on: solve a placement-shaped LP, perturb its volumes,
// and re-solve warm vs cold.
func BenchmarkWarmVsColdReplan(b *testing.B) {
	base := testVols(80, func(int) float64 { return 1 })
	first, err := placementLike(80, 12, base).Solve()
	if err != nil {
		b.Fatal(err)
	}
	drifted := testVols(80, func(u int) float64 { return 1 + 0.08*math.Cos(float64(u)) })

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sol, err := placementLike(80, 12, drifted).Solve()
			if err != nil || sol.Status != StatusOptimal {
				b.Fatalf("status %v err %v", sol.Status, err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sol, err := placementLike(80, 12, drifted).SolveOpts(Options{WarmBasis: first.Basis})
			if err != nil || sol.Status != StatusOptimal {
				b.Fatalf("status %v err %v", sol.Status, err)
			}
		}
	})
}

// Clone returns a deep copy, detaching the snapshot from any later reuse.
func (b *Basis) Clone() *Basis {
	if b == nil {
		return nil
	}
	return &Basis{
		Cols:    b.Cols,
		Rows:    b.Rows,
		Basic:   append([]int(nil), b.Basic...),
		AtUpper: append([]int(nil), b.AtUpper...),
	}
}
