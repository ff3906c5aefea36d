// Package lp implements a self-contained linear-programming solver.
//
// The paper this repository reproduces ("Network-Wide Deployment of
// Intrusion Detection and Prevention Systems", CoNEXT 2010) relies on CPLEX
// to solve its NIDS load-balancing LP (Section 2.2) and the LP relaxation of
// its NIPS mixed-integer program (Section 3.2). Go has no mainstream LP
// ecosystem, so this package provides the substrate: a two-phase revised
// primal simplex over sparse columns, with B^-1 kept as a refactorized eta
// file, and native bounded variables (0 <= x <= u, u possibly +Inf, after a
// shift of finite lower bounds). It detects infeasibility and unboundedness,
// prices by Dantzig's rule with a switch to Bland's under prolonged
// degeneracy, and breaks ratio-test ties toward large pivots. A Problem
// holds numbers only: variables and constraints are known by their index,
// and errors name that index.
package lp

import (
	"errors"
	"fmt"
	"math"

	"nwdeploy/internal/obs"
)

// Sense selects the optimization direction of a Problem.
type Sense int

const (
	// Minimize selects minimization of the objective.
	Minimize Sense = iota
	// Maximize selects maximization of the objective.
	Maximize
)

// Op is the relational operator of a linear constraint.
type Op int

const (
	// LE constrains the linear form to be <= the right-hand side.
	LE Op = iota
	// GE constrains the linear form to be >= the right-hand side.
	GE
	// EQ constrains the linear form to equal the right-hand side.
	EQ
)

// String returns the conventional symbol for the operator.
func (o Op) String() string {
	switch o {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Var identifies a decision variable within a Problem. The zero value is a
// valid variable (the first one added).
type Var int

// Term is a single coefficient/variable product in a linear expression.
type Term struct {
	Var  Var
	Coef float64
}

// Status describes the outcome of a Solve call.
type Status int

const (
	// StatusOptimal means an optimal basic feasible solution was found.
	StatusOptimal Status = iota
	// StatusInfeasible means the constraint system has no feasible point.
	StatusInfeasible
	// StatusUnbounded means the objective is unbounded over the feasible
	// region in the direction of optimization.
	StatusUnbounded
	// StatusIterLimit means the solver stopped before it could prove
	// optimality: the iteration budget ran out, or a cold solve's basis grew
	// too near singular to refactor (X is then not even known feasible).
	StatusIterLimit
)

// String returns a human-readable status name.
func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusInfeasible:
		return "infeasible"
	case StatusUnbounded:
		return "unbounded"
	case StatusIterLimit:
		return "iteration-limit"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Typed sentinel errors. SolveOpts returns ErrNoVariables directly for a
// structurally empty problem and wraps ErrNonFinite for NaN or infinite
// data; the model-outcome statuses map to the other sentinels via
// Status.Err, so callers that treat a non-optimal status as a failure can
// wrap the sentinel with %w and let their own callers match it with
// errors.Is instead of parsing status strings.
var (
	// ErrNoVariables reports a Problem with no decision variables.
	ErrNoVariables = errors.New("lp: problem has no variables")
	// ErrNonFinite reports a NaN or infinite objective cost, constraint
	// coefficient or right-hand side. The simplex has no defined answer on
	// such data: left unchecked it reports an optimum whose objective is NaN.
	ErrNonFinite = errors.New("lp: non-finite problem data")
	// ErrInfeasible reports a constraint system with no feasible point.
	ErrInfeasible = errors.New("lp: problem is infeasible")
	// ErrUnbounded reports an objective unbounded over the feasible region.
	ErrUnbounded = errors.New("lp: problem is unbounded")
	// ErrIterLimit reports an exhausted iteration budget.
	ErrIterLimit = errors.New("lp: iteration limit reached")
)

// Err maps the status to its sentinel error: nil for StatusOptimal,
// ErrInfeasible/ErrUnbounded/ErrIterLimit otherwise.
func (s Status) Err() error {
	switch s {
	case StatusOptimal:
		return nil
	case StatusInfeasible:
		return ErrInfeasible
	case StatusUnbounded:
		return ErrUnbounded
	case StatusIterLimit:
		return ErrIterLimit
	}
	return fmt.Errorf("lp: unknown status %d", int(s))
}

// Inf is a convenience for an unbounded-above variable limit.
func Inf() float64 { return math.Inf(1) }

type variable struct {
	cost float64
	lb   float64 // finite
	ub   float64 // may be +Inf; ub >= lb
}

type constraint struct {
	terms []Term
	op    Op
	rhs   float64
}

// Problem is a linear program under construction. Build it with AddVar and
// AddConstraint, then call Solve. A Problem is not safe for concurrent use.
type Problem struct {
	sense Sense
	vars  []variable
	cons  []constraint
}

// New returns an empty problem with the given optimization sense.
func New(sense Sense) *Problem {
	return &Problem{sense: sense}
}

// NumVars reports the number of variables added so far.
func (p *Problem) NumVars() int { return len(p.vars) }

// AddVar adds a decision variable with the given objective cost and bounds
// lb <= x <= ub. lb must be finite; ub may be +Inf. It returns the variable
// handle used in constraint terms.
func (p *Problem) AddVar(cost, lb, ub float64) Var {
	if math.IsInf(lb, 0) || math.IsNaN(lb) || math.IsNaN(ub) || ub < lb {
		panic(fmt.Sprintf("lp: variable %d has invalid bounds [%v, %v]", len(p.vars), lb, ub))
	}
	p.vars = append(p.vars, variable{cost: cost, lb: lb, ub: ub})
	return Var(len(p.vars) - 1)
}

// AddConstraint adds the linear constraint sum(terms) op rhs and returns its
// row index. Terms referring to the same variable are summed. Terms with
// out-of-range variables panic: they indicate a programming error in the
// model builder, not a data condition.
func (p *Problem) AddConstraint(terms []Term, op Op, rhs float64) int {
	for _, t := range terms {
		if int(t.Var) < 0 || int(t.Var) >= len(p.vars) {
			panic(fmt.Sprintf("lp: constraint %d references unknown variable %d", len(p.cons), t.Var))
		}
	}
	p.cons = append(p.cons, constraint{terms: append([]Term(nil), terms...), op: op, rhs: rhs})
	return len(p.cons) - 1
}

// Options tunes the solver. The zero value selects reasonable defaults.
type Options struct {
	// MaxIters bounds the total number of simplex iterations across both
	// phases. Zero selects a default proportional to problem size.
	MaxIters int
	// Presolve enables fixed-variable substitution, singleton-row bound
	// tightening, and empty-row elimination before the simplex. Solutions
	// found under presolve carry no Duals (and no Basis: the reduced
	// model's columns do not map to the full column space).
	Presolve bool
	// WarmBasis, when non-nil, starts the solve from a previously captured
	// optimal basis (Solution.Basis) instead of the all-slack/artificial
	// initial basis. The basis must come from a problem of identical shape
	// — same variable count, same constraints with the same operators — as
	// arises when only the numeric data (volumes, capacities) changed; a
	// basis that no longer fits or is primal-infeasible for the new data is
	// silently discarded and the solve falls back to a cold start.
	// WarmBasis takes precedence over Presolve.
	WarmBasis *Basis
	// Metrics, when non-nil, receives solver observability: per-phase
	// pivot counts, Bland-rule activations, presolve eliminations, and
	// solve wall time. The registry is write-only — it never influences
	// pivoting — so solutions are identical with or without it (the nil
	// registry is the no-op default; see internal/obs).
	Metrics *obs.Registry
}

// Solution is the result of a Solve call.
type Solution struct {
	Status    Status
	Objective float64   // objective value in the problem's original sense
	X         []float64 // one value per variable, in AddVar order
	// Duals holds one shadow price per constraint (AddConstraint order):
	// the rate of change of the optimal objective per unit increase of
	// that constraint's right-hand side, in the problem's original sense.
	// Populated only at StatusOptimal. For a binding capacity constraint
	// in a maximization this is the marginal value of extra capacity —
	// the quantity the what-if provisioning analysis of the paper's
	// Section 5 needs.
	Duals []float64
	Iters int // simplex iterations used (both phases)
	// Basis is the optimal basis in the solver's column space, captured at
	// StatusOptimal on non-presolved solves (nil otherwise). Feed it to
	// Options.WarmBasis to re-solve a same-shaped problem with perturbed
	// data pivoting from this optimum instead of from scratch.
	Basis *Basis
	// Stats carries deterministic solve counters. They are derived from
	// the computation itself (never from the clock), so two solves of the
	// same problem report identical Stats regardless of Options.Metrics.
	Stats SolveStats
}

// SolveStats itemizes the work a Solve performed. All fields are
// deterministic functions of the problem and options.
type SolveStats struct {
	Phase1Iters int // simplex pivots spent reaching feasibility
	Phase2Iters int // simplex pivots spent optimizing
	// BlandActivations counts how many times prolonged degeneracy forced
	// the pricing rule from Dantzig to Bland (each activation lasts until
	// the next improving step).
	BlandActivations int
	// PresolveFixedVars and PresolveDroppedRows count the variables fixed
	// and rows retired by presolve (zero unless Options.Presolve).
	PresolveFixedVars   int
	PresolveDroppedRows int
}

// Value returns the optimal value of v.
func (s *Solution) Value(v Var) float64 { return s.X[v] }

// solved sees every problem SolveOpts solves and its solution: a no-op, set
// by tests that certify the LPs other packages build.
var solved = func(*Problem, *Solution) {}

// SolveOpts optimizes the problem. An error is returned only for malformed
// problems (no variables, or data wrapping ErrNonFinite); infeasibility and
// unboundedness are reported via Solution.Status with a nil error so callers
// can distinguish model outcomes from programming errors.
func (p *Problem) SolveOpts(opts Options) (*Solution, error) {
	if len(p.vars) == 0 {
		return nil, ErrNoVariables
	}
	if err := p.checkFinite(); err != nil {
		return nil, err
	}
	sp := opts.Metrics.StartSpan("lp.solve_ns")
	var sol *Solution
	var err error
	warmTried, warmUsed := false, false
	if opts.Presolve && opts.WarmBasis == nil {
		sol, err = solveWithPresolve(p, opts)
	} else {
		// A warm basis that no longer fits (shape change, singularity, primal
		// infeasibility at the new data), or that turns singular mid-solve,
		// gives way to a cold start from a fresh simplex.
		s := newSimplex(p, opts)
		if warmTried = opts.WarmBasis != nil; warmTried && s.installBasis(opts.WarmBasis) {
			sol, err = s.solve()
			warmUsed = !s.singular
		}
		if !warmUsed {
			if warmTried {
				s = newSimplex(p, opts)
			}
			sol, err = s.solve()
		}
	}
	sp.End()
	if err != nil {
		return nil, err
	}
	solved(p, sol)
	if m := opts.Metrics; m != nil {
		m.Add("lp.solves", 1)
		m.Add("lp.pivots_phase1", int64(sol.Stats.Phase1Iters))
		m.Add("lp.pivots_phase2", int64(sol.Stats.Phase2Iters))
		m.Add("lp.bland_activations", int64(sol.Stats.BlandActivations))
		m.Add("lp.presolve_fixed_vars", int64(sol.Stats.PresolveFixedVars))
		m.Add("lp.presolve_dropped_rows", int64(sol.Stats.PresolveDroppedRows))
		if warmTried {
			if warmUsed {
				m.Add("lp.warm_starts", 1)
			} else {
				m.Add("lp.warm_rejects", 1)
			}
		}
		if sol.Status != StatusOptimal {
			m.Add("lp.solves_"+sol.Status.String(), 1)
		}
	}
	return sol, nil
}

// checkFinite rejects NaN or infinite costs, coefficients and right-hand
// sides, naming the first offender. Variable bounds are checked by AddVar.
func (p *Problem) checkFinite() error {
	bad := func(x float64) bool { return math.IsNaN(x) || math.IsInf(x, 0) }
	for i, v := range p.vars {
		if bad(v.cost) {
			return fmt.Errorf("%w: variable %d has cost %v", ErrNonFinite, i, v.cost)
		}
	}
	for r, c := range p.cons {
		if bad(c.rhs) {
			return fmt.Errorf("%w: constraint %d has rhs %v", ErrNonFinite, r, c.rhs)
		}
		for _, t := range c.terms {
			if bad(t.Coef) {
				return fmt.Errorf("%w: constraint %d has coefficient %v on variable %d", ErrNonFinite, r, t.Coef, t.Var)
			}
		}
	}
	return nil
}
