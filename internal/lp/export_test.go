package lp

// Certify exports the optimality certificate to the external tests, which
// certify the LPs other packages build. Those are large, so each row's
// complementary-slackness bound scales with its magnitude (see certify).
func Certify(p *Problem, sol *Solution, tol float64) error { return certify(p, sol, tol, true) }

// ObserveSolves routes every SolveOpts result, with its problem, to f until
// the returned restore is called. Tests using it must not run in parallel.
func ObserveSolves(f func(*Problem, *Solution)) (restore func()) {
	old := solved
	solved = f
	return func() { solved = old }
}

// PrimalFeasible exports the primal half of the certificate, all a
// presolved solution can be held to.
var PrimalFeasible = primalFeasible

// CheckKernels exports the reference-kernel oracle (kernels_ref_test.go),
// so the external tests can step the planners' LPs under it.
var CheckKernels = checkKernels

// GoldenRandomLPs, BealeLP and DeploymentLP export LPs of the package
// tests: the solve golden's random boxed LPs, Beale's cycling example and
// the deployment-shaped LP of the benchmarks and the golden.
var GoldenRandomLPs, BealeLP, DeploymentLP = goldenRandomLPs, bealeLP, buildDeploymentLP

// Replay snapshots p's numbers and returns a function that rebuilds an
// equal Problem through AddVar and AddConstraint, so a test can measure what
// building a planner's LP costs apart from the planner's own bookkeeping.
func Replay(p *Problem) func() *Problem {
	vars := append([]variable(nil), p.vars...)
	cons := append([]constraint(nil), p.cons...)
	return func() *Problem {
		q := New(p.sense)
		for _, v := range vars {
			q.AddVar(v.cost, v.lb, v.ub)
		}
		for _, c := range cons {
			q.AddConstraint(c.terms, c.op, c.rhs)
		}
		return q
	}
}
