package lp

import (
	"math"
	"math/rand"
	"testing"
)

func solveBoth(t *testing.T, p *Problem) (*Solution, *Solution) {
	t.Helper()
	plain, err := p.SolveOpts(Options{})
	if err != nil {
		t.Fatal(err)
	}
	pre, err := p.SolveOpts(Options{Presolve: true})
	if err != nil {
		t.Fatal(err)
	}
	return plain, pre
}

func TestPresolveMatchesPlainOnRandomLPs(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(4)
		p := New(Maximize)
		vars := make([]Var, n)
		for j := range vars {
			lo := 0.0
			hi := 1 + rng.Float64()*5
			if rng.Intn(5) == 0 {
				hi = lo // fixed variable, presolve fodder
			}
			vars[j] = p.AddVar(rng.Float64()*4-1, lo, hi)
		}
		m := 1 + rng.Intn(5)
		for i := 0; i < m; i++ {
			nt := 1 + rng.Intn(n)
			perm := rng.Perm(n)[:nt]
			var terms []Term
			for _, j := range perm {
				terms = append(terms, Term{vars[j], rng.Float64()*4 - 1})
			}
			op := []Op{LE, GE, EQ}[rng.Intn(3)]
			rhs := rng.Float64()*6 - 1
			if op == EQ {
				// Keep equalities satisfiable more often.
				rhs = math.Abs(rhs) / 2
			}
			p.AddConstraint(terms, op, rhs)
		}
		plain, pre := solveBoth(t, p)
		if plain.Status != pre.Status {
			t.Fatalf("trial %d: status %v (plain) vs %v (presolve)", trial, plain.Status, pre.Status)
		}
		if plain.Status != StatusOptimal {
			continue
		}
		if math.Abs(plain.Objective-pre.Objective) > 1e-6*(1+math.Abs(plain.Objective)) {
			t.Fatalf("trial %d: objective %v (plain) vs %v (presolve)", trial, plain.Objective, pre.Objective)
		}
	}
}

func TestPresolveFixedVariableSubstitution(t *testing.T) {
	p := New(Maximize)
	x := p.AddVar(1, 3, 3) // fixed at 3
	y := p.AddVar(2, 0, Inf())
	p.AddConstraint([]Term{{x, 1}, {y, 1}}, LE, 10)
	_, pre := solveBoth(t, p)
	if pre.Status != StatusOptimal {
		t.Fatalf("status %v", pre.Status)
	}
	if pre.Value(x) != 3 || math.Abs(pre.Value(y)-7) > 1e-9 {
		t.Fatalf("x=%v y=%v, want 3, 7", pre.Value(x), pre.Value(y))
	}
	if math.Abs(pre.Objective-17) > 1e-9 {
		t.Fatalf("objective %v, want 17", pre.Objective)
	}
}

func TestPresolveSingletonRowsBecomeBounds(t *testing.T) {
	p := New(Minimize)
	x := p.AddVar(1, 0, Inf())
	p.AddConstraint([]Term{{x, 2}}, GE, 6) // x >= 3
	p.AddConstraint([]Term{{x, -1}}, GE, -8)
	plain, pre := solveBoth(t, p)
	if plain.Status != StatusOptimal || pre.Status != StatusOptimal {
		t.Fatalf("statuses %v / %v", plain.Status, pre.Status)
	}
	if math.Abs(pre.Objective-3) > 1e-9 {
		t.Fatalf("objective %v, want 3", pre.Objective)
	}
}

func TestPresolveDetectsInfeasibleBounds(t *testing.T) {
	p := New(Minimize)
	x := p.AddVar(1, 0, 2)
	p.AddConstraint([]Term{{x, 1}}, GE, 5)
	_, pre := solveBoth(t, p)
	if pre.Status != StatusInfeasible {
		t.Fatalf("status %v, want infeasible", pre.Status)
	}
}

func TestPresolveDetectsInfeasibleEmptyRow(t *testing.T) {
	p := New(Minimize)
	x := p.AddVar(1, 2, 2) // fixed
	p.AddConstraint([]Term{{x, 1}}, EQ, 5)
	_, pre := solveBoth(t, p)
	if pre.Status != StatusInfeasible {
		t.Fatalf("status %v, want infeasible", pre.Status)
	}
}

func TestPresolveAllFixed(t *testing.T) {
	p := New(Maximize)
	x := p.AddVar(2, 1, 1)
	y := p.AddVar(3, 2, 2)
	p.AddConstraint([]Term{{x, 1}, {y, 1}}, LE, 5)
	sol, err := p.SolveOpts(Options{Presolve: true})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal || sol.Objective != 8 {
		t.Fatalf("got %v obj=%v, want optimal 8", sol.Status, sol.Objective)
	}
}

func TestPresolveOmitsDuals(t *testing.T) {
	p := New(Maximize)
	x := p.AddVar(1, 0, Inf())
	p.AddConstraint([]Term{{x, 1}}, LE, 4)
	sol, err := p.SolveOpts(Options{Presolve: true})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Duals != nil {
		t.Fatal("presolved solution must not claim duals")
	}
}

func TestPresolveOnDeploymentShapedLP(t *testing.T) {
	// Shape: pinned ingress units (singleton equalities) mixed with free
	// path units — the case presolve targets.
	p := New(Minimize)
	lambda := p.AddVar(1, 0, Inf())
	var loadTerms []Term
	for u := 0; u < 20; u++ {
		v := p.AddVar(0, 0, 1)
		p.AddConstraint([]Term{{v, 1}}, EQ, 1) // singleton
		loadTerms = append(loadTerms, Term{v, 0.01})
	}
	a := p.AddVar(0, 0, 1)
	b := p.AddVar(0, 0, 1)
	p.AddConstraint([]Term{{a, 1}, {b, 1}}, EQ, 1)
	p.AddConstraint(append(append([]Term{}, loadTerms...), Term{a, 0.5}, Term{lambda, -1}), LE, 0)
	p.AddConstraint([]Term{{b, 0.5}, {lambda, -1}}, LE, 0)
	plain, pre := solveBoth(t, p)
	if math.Abs(plain.Objective-pre.Objective) > 1e-8 {
		t.Fatalf("objectives differ: %v vs %v", plain.Objective, pre.Objective)
	}
	if pre.Iters >= plain.Iters && plain.Iters > 4 {
		t.Logf("note: presolve used %d iters vs %d plain (no strict guarantee)", pre.Iters, plain.Iters)
	}
}
