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
