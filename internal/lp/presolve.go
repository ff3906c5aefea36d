package lp

import (
	"fmt"
	"math"
)

// Presolve reductions: fixed-variable substitution, singleton-row bound
// tightening, and empty-row elimination, iterated to a fixpoint. The
// deployment LPs this repository builds contain many structural
// singletons (fully pinned ingress units, zero-capacity rules), and
// removing them before the simplex both shrinks the LP and improves
// conditioning.
//
// Presolve is opt-in (Options.Presolve) because a reduced model cannot
// report duals for eliminated rows; Solutions produced under presolve have
// a nil Duals slice.

// presolveResult carries the reduced problem and the recovery mapping.
type presolveResult struct {
	reduced *Problem
	// varMap[i] is the reduced-problem index of original variable i, or -1
	// if the variable was fixed; fixedVal holds its value then.
	varMap   []int
	fixedVal []float64
	// status is StatusOptimal when reduction succeeded, StatusInfeasible
	// when presolve proved infeasibility outright.
	status Status
	// allFixed reports that no free variables remain: the reduced problem
	// is empty and the fixed values are the (unique) candidate solution.
	allFixed bool
	// fixedVars and droppedRows count the eliminations performed, for the
	// solve report (Solution.Stats) and the obs registry.
	fixedVars   int
	droppedRows int
}

const presolveTol = 1e-9

// presolve applies the reductions. It never loosens the model: every
// transformation preserves the feasible set exactly.
func presolve(p *Problem) *presolveResult {
	n := len(p.vars)
	lb, ub := make([]float64, n), make([]float64, n)
	for i, v := range p.vars {
		lb[i], ub[i] = v.lb, v.ub
	}

	type row struct {
		terms []Term
		op    Op
		rhs   float64
		live  bool
	}
	rows := make([]row, len(p.cons))
	for r, c := range p.cons {
		// Merge duplicate terms up front, keeping first-occurrence order:
		// term order decides downstream summation order, so iterating the
		// map here would make the optimum's last ULP vary run to run.
		sum := map[Var]float64{}
		order := make([]Var, 0, len(c.terms))
		for _, t := range c.terms {
			if _, seen := sum[t.Var]; !seen {
				order = append(order, t.Var)
			}
			sum[t.Var] += t.Coef
		}
		var terms []Term
		for _, v := range order {
			if coef := sum[v]; coef != 0 {
				terms = append(terms, Term{v, coef})
			}
		}
		rows[r] = row{terms: terms, op: c.op, rhs: c.rhs, live: true}
	}

	res := &presolveResult{status: StatusOptimal}
	changed := true
	for changed {
		changed = false
		// Bound sanity.
		for i := 0; i < n; i++ {
			if lb[i] > ub[i]+presolveTol {
				res.status = StatusInfeasible
				return res
			}
		}
		for r := range rows {
			if !rows[r].live {
				continue
			}
			// Drop terms of variables already fixed (lb == ub): fold them
			// into the rhs.
			kept := rows[r].terms[:0]
			for _, t := range rows[r].terms {
				if ub[t.Var]-lb[t.Var] <= presolveTol {
					rows[r].rhs -= t.Coef * lb[t.Var]
					changed = true
					continue
				}
				kept = append(kept, t)
			}
			rows[r].terms = kept

			switch len(rows[r].terms) {
			case 0:
				// Empty row: either trivially satisfied or infeasible.
				ok := false
				switch rows[r].op {
				case LE:
					ok = 0 <= rows[r].rhs+presolveTol
				case GE:
					ok = 0 >= rows[r].rhs-presolveTol
				case EQ:
					ok = math.Abs(rows[r].rhs) <= presolveTol
				}
				if !ok {
					res.status = StatusInfeasible
					return res
				}
				rows[r].live, changed = false, true
			case 1:
				// Singleton row: translate into a bound and retire the row.
				t := rows[r].terms[0]
				bound := rows[r].rhs / t.Coef
				op := rows[r].op
				if t.Coef < 0 {
					switch op {
					case LE:
						op = GE
					case GE:
						op = LE
					}
				}
				switch op {
				case LE:
					if bound < ub[t.Var] {
						ub[t.Var] = bound
					}
				case GE:
					if bound > lb[t.Var] {
						lb[t.Var] = bound
					}
				case EQ:
					if bound < lb[t.Var]-presolveTol || bound > ub[t.Var]+presolveTol {
						res.status = StatusInfeasible
						return res
					}
					lb[t.Var], ub[t.Var] = bound, bound
				}
				rows[r].live, changed = false, true
			}
		}
	}

	// Build the reduced problem.
	res.varMap, res.fixedVal = make([]int, n), make([]float64, n)
	reduced := New(p.sense)
	for i, v := range p.vars {
		if ub[i]-lb[i] <= presolveTol {
			res.varMap[i], res.fixedVal[i] = -1, lb[i]
			res.fixedVars++
			continue
		}
		res.varMap[i] = reduced.NumVars()
		reduced.AddVar(v.cost, lb[i], ub[i])
	}
	for r := range rows {
		if !rows[r].live {
			res.droppedRows++
			continue
		}
		terms := make([]Term, 0, len(rows[r].terms))
		for _, t := range rows[r].terms {
			terms = append(terms, Term{Var(res.varMap[t.Var]), t.Coef})
		}
		reduced.AddConstraint(terms, rows[r].op, rows[r].rhs)
	}
	res.reduced = reduced
	res.allFixed = reduced.NumVars() == 0
	return res
}

// solveWithPresolve reduces, solves, and maps the solution back to the
// original variable space.
func solveWithPresolve(p *Problem, opts Options) (*Solution, error) {
	res := presolve(p)
	if res.status == StatusInfeasible {
		return &Solution{Status: StatusInfeasible}, nil
	}

	objective := func(x []float64) float64 {
		var obj float64
		for i, v := range p.vars {
			obj += v.cost * x[i]
		}
		return obj
	}

	presolveStats := SolveStats{PresolveFixedVars: res.fixedVars, PresolveDroppedRows: res.droppedRows}

	if res.allFixed {
		// Everything pinned: validate the unique candidate against the
		// original constraints (presolve retired them all, so they hold by
		// construction, but verify defensively).
		x := append([]float64(nil), res.fixedVal...)
		return &Solution{Status: StatusOptimal, Objective: objective(x), X: x, Stats: presolveStats}, nil
	}

	// Metrics intentionally absent from the inner options: the outer
	// SolveOpts records the combined stats exactly once.
	inner := Options{MaxIters: opts.MaxIters}
	sol, err := res.reduced.SolveOpts(inner)
	if err != nil {
		return nil, fmt.Errorf("lp: presolved model: %w", err)
	}
	stats := sol.Stats
	stats.PresolveFixedVars, stats.PresolveDroppedRows = res.fixedVars, res.droppedRows
	if sol.Status != StatusOptimal {
		return &Solution{Status: sol.Status, Iters: sol.Iters, Stats: stats}, nil
	}
	x := make([]float64, len(p.vars))
	for i := range x {
		if res.varMap[i] < 0 {
			x[i] = res.fixedVal[i]
		} else {
			x[i] = sol.X[res.varMap[i]]
		}
	}
	return &Solution{
		Status:    StatusOptimal,
		Objective: objective(x),
		X:         x,
		Iters:     sol.Iters,
		Stats:     stats,
		// Duals intentionally omitted: rows eliminated by presolve have no
		// representative in the reduced basis.
	}, nil
}
