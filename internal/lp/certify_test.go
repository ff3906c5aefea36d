package lp

import (
	"fmt"
	"math"
)

// certify checks that sol proves itself optimal for p, working on p's
// sparse terms and general bounds. With reduced costs d = c - Aᵀy (the
// problem's own sense and row orientation):
//   - primal feasibility: every row holds and every x is within its bounds
//     (primalFeasible), and sol.Objective is c·x;
//   - dual feasibility: y has the sign its row's operator allows (a min
//     problem gains from a looser GE row, y >= 0, and a tighter LE row,
//     y <= 0; max flips both; EQ rows are free), and each dⱼ the sign its
//     bound position allows (min: >= 0 at the lower bound, <= 0 at the
//     upper, 0 strictly between; max flips);
//   - complementary slackness: a row with slack carries no price;
//   - the Lagrangian identity c·x = y·b + d·x, and a zero duality gap: c·x
//     equals the dual objective y·b + Σⱼ dⱼ·(the bound dⱼ prices).
//
// Each reduced cost and each objective sum is held to tol scaled by the
// magnitudes in it. A row's slack times its price is held to tol·(1+|y|),
// and a bound position to tol, unless scaled: then both also scale by the
// magnitudes involved, 1 + |rhs| + Σ|aᵢxᵢ| and 1 + |x|. The planner LPs
// (TestCertifyPlannerLPs) sum hundreds of terms a row, where the unscaled
// bound asks for more digits than a solve keeps; small LPs keep it.
//
// The duals are the final basis's reduced costs, recomputed through BTRAN,
// and x comes through FTRAN, so this guards both kernels and the eta file.
func certify(p *Problem, sol *Solution, tol float64, scaled bool) error {
	if sol.Status != StatusOptimal {
		return fmt.Errorf("status %v", sol.Status)
	}
	x, y := sol.X, sol.Duals
	if len(y) != len(p.cons) {
		return fmt.Errorf("%d duals for %d rows", len(y), len(p.cons))
	}
	if err := primalFeasible(p, sol, tol); err != nil {
		return err
	}
	sense := 1.0
	if p.sense == Maximize {
		sense = -1
	}
	d := make([]float64, len(p.vars))
	dScale := make([]float64, len(p.vars))
	for j, v := range p.vars {
		d[j], dScale[j] = v.cost, math.Abs(v.cost)
	}
	yb, ybScale := 0.0, 0.0
	for r, c := range p.cons {
		ax, rowScale := 0.0, math.Abs(c.rhs)
		for _, t := range c.terms {
			ax += t.Coef * x[t.Var]
			rowScale += math.Abs(t.Coef * x[t.Var])
			d[t.Var] -= y[r] * t.Coef
			dScale[t.Var] += math.Abs(y[r] * t.Coef)
		}
		slackTol := tol * (1 + math.Abs(y[r]))
		if scaled {
			slackTol *= 1 + rowScale
		}
		switch {
		case c.op == LE && sense*y[r] > tol, c.op == GE && sense*y[r] < -tol:
			return fmt.Errorf("row %d (%v) dual %v has the wrong sign", r, c.op, y[r])
		case math.Abs(y[r]*(c.rhs-ax)) > slackTol:
			return fmt.Errorf("row %d has slack %v and dual %v", r, c.rhs-ax, y[r])
		}
		yb += y[r] * c.rhs
		ybScale += math.Abs(y[r] * c.rhs)
	}
	primal, dx, dual := 0.0, 0.0, yb
	cxScale, dxScale, scale := 0.0, 0.0, ybScale
	for j, v := range p.vars {
		t, bt := tol*(1+dScale[j]), tol
		if scaled {
			bt *= 1 + math.Abs(x[j])
		}
		atLower, atUpper := x[j] <= v.lb+bt, x[j] >= v.ub-bt
		switch {
		case atLower && atUpper: // a zero-width box prices at any sign
		case atLower && sense*d[j] < -t, atUpper && sense*d[j] > t, !atLower && !atUpper && math.Abs(d[j]) > t:
			return fmt.Errorf("x[%d] = %v in [%v, %v] has reduced cost %v", j, x[j], v.lb, v.ub, d[j])
		}
		bound := x[j] // a reduced cost within tolerance prices the value itself
		if sense*d[j] > t {
			bound = v.lb
		} else if sense*d[j] < -t {
			bound = v.ub
		}
		dual += d[j] * bound
		scale += math.Abs(d[j] * bound)
		primal += v.cost * x[j]
		cxScale += math.Abs(v.cost * x[j])
		dx += d[j] * x[j]
		dxScale += math.Abs(d[j] * x[j])
	}
	if math.Abs(primal-(yb+dx)) > tol*(1+cxScale+ybScale+dxScale) {
		return fmt.Errorf("c·x = %v but y·b + d·x = %v", primal, yb+dx)
	}
	if math.Abs(primal-dual) > tol*(1+cxScale+scale) {
		return fmt.Errorf("duality gap: c·x = %v, dual objective %v", primal, dual)
	}
	return nil
}

// primalFeasible checks sol.X against p's rows and bounds, and sol.Objective
// against c·x. It is all a presolved solution, which carries no duals, can
// be held to.
func primalFeasible(p *Problem, sol *Solution, tol float64) error {
	x := sol.X
	if len(x) != len(p.vars) {
		return fmt.Errorf("%d values for %d variables", len(x), len(p.vars))
	}
	cx, scale := 0.0, 0.0
	for j, v := range p.vars {
		if bt := tol * (1 + math.Abs(x[j])); x[j] < v.lb-bt || x[j] > v.ub+bt {
			return fmt.Errorf("x[%d] = %v outside [%v, %v]", j, x[j], v.lb, v.ub)
		}
		cx += v.cost * x[j]
		scale += math.Abs(v.cost * x[j])
	}
	if math.Abs(cx-sol.Objective) > tol*(1+scale) {
		return fmt.Errorf("objective %v but c·x = %v", sol.Objective, cx)
	}
	for r, c := range p.cons {
		ax, rt := 0.0, math.Abs(c.rhs)
		for _, t := range c.terms {
			ax += t.Coef * x[t.Var]
			rt += math.Abs(t.Coef * x[t.Var])
		}
		if rt = tol * (1 + rt); c.op == LE && ax > c.rhs+rt || c.op == GE && ax < c.rhs-rt || c.op == EQ && math.Abs(ax-c.rhs) > rt {
			return fmt.Errorf("row %d: %v %v %v violated", r, ax, c.op, c.rhs)
		}
	}
	return nil
}
