package lp

import (
	"math"
	"testing"

	"nwdeploy/internal/obs"
)

// nearSingularLP has two nearly parallel rows, so its basis {x1, x2} has
// determinant 1e-10. The simplex can reach that basis through pivots of
// 1e-4 (x2 into row 1) and 1e-6 (x1 into row 0), both above pivTol. A
// factorization takes x1 first, on its larger entry in row 0, and is left
// with 1e-10 for x2 in row 1: below pivTol, so factor fails. The objective
// makes {x1, x2} optimal, with duals (1, 1); the optimum x = (0, 1) is
// degenerate, and (1, 0) is worse by 1e-10.
func nearSingularLP() *Problem {
	const c = 1e-4 - 1e-10
	p := New(Maximize)
	x1 := p.AddVar(1+c, 0, Inf())
	x2 := p.AddVar(1+1e-4, 0, Inf())
	p.AddConstraint([]Term{{x1, 1}, {x2, 1}}, LE, 1)
	p.AddConstraint([]Term{{x1, c}, {x2, 1e-4}}, LE, 1e-4)
	return p
}

// A refactorization that cannot factor the basis ends the solve unproven.
// factor swaps a unit column in for the column it could not place, and
// that column's value may break its bounds; nothing after would notice, so
// the solve must not go on to report an optimum.
func TestSingularRefactorStopsSolve(t *testing.T) {
	s := newSimplex(nearSingularLP(), Options{})
	for _, rj := range [][2]int{{1, 1}, {0, 0}} { // row, entering column
		s.ftranCol(rj[1])
		if piv := math.Abs(s.col.x[rj[0]]); piv <= pivTol {
			t.Fatalf("pivot %v on row %d is not one the ratio test accepts", piv, rj[0])
		}
		s.pivot(rj[0], rj[1], atLower)
	}
	s.c = s.objCost
	s.refresh()
	s.updates = refactorEvery // the next step refactors before pricing
	st, done := s.step()
	if !done || st != StatusIterLimit || !s.singular {
		t.Fatalf("step over a basis factor cannot place: status %v, done %v, singular %v; want iteration-limit, done, singular",
			st, done, s.singular)
	}
}

// A warm solve whose basis turns singular mid-solve restarts cold. The
// warm basis {s0, x2} factors; x1 enters on a degenerate pivot in row 0;
// the refactorization that confirms optimality then fails on {x1, x2}.
// The cold solve reaches the optimum on a well-conditioned basis.
func TestWarmSingularFallsBackCold(t *testing.T) {
	p := nearSingularLP()
	reg := obs.New()
	sol, err := p.SolveOpts(Options{
		WarmBasis: &Basis{Cols: 4, Rows: 2, Basic: []int{2, 1}}, // s0 in row 0, x2 in row 1
		Metrics:   reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	counters := reg.Snapshot().Counters
	if counters["lp.warm_rejects"] != 1 || counters["lp.warm_starts"] != 0 {
		t.Fatalf("warm_rejects %d, warm_starts %d; want the singular warm solve rejected",
			counters["lp.warm_rejects"], counters["lp.warm_starts"])
	}
	if err := certify(p, sol, 1e-12, false); err != nil {
		t.Fatal(err)
	}
	if want := 1 + 1e-4; math.Abs(sol.Objective-want) > 1e-12 {
		t.Fatalf("objective %v, want %v", sol.Objective, want)
	}
}
