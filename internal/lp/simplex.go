package lp

import (
	"math"
)

// varState tracks where a variable currently sits.
type varState int8

const (
	atLower varState = iota // nonbasic at its (shifted) lower bound 0
	atUpper                 // nonbasic at its finite upper bound
	basic                   // basic; value held in beta for its row
)

// simplex is a dense-tableau, bounded-variable, two-phase primal simplex.
//
// Internal form: all variables are shifted so lower bounds are 0; every
// constraint row is an equality after adding a slack (LE) or surplus (GE)
// column; rows are normalized to nonnegative right-hand sides; artificial
// variables complete the initial basis for rows whose slack cannot serve.
//
// The tableau T holds B^-1*A (including slack/artificial columns) plus the
// transformed right-hand side B^-1*b in the final column. The vector beta
// holds the *current values* of the basic variables, which differ from the
// rhs column whenever some nonbasic variable rests at a finite upper bound;
// beta is updated incrementally each step and refreshed exactly from the
// rhs column at intervals to stop floating-point drift.
//
// The tableau is stored densely but eliminated sparsely: a pivot touches
// only the columns where the pivot row is nonzero. Skipping x -= f*0 can
// change nothing but the sign of a zero, which no comparison sees, so the
// pivot sequence, the basis and every primal value are those of the full
// dense sweep, bit for bit.
type simplex struct {
	nStruct int // structural variables
	nTotal  int // structural + slack/surplus + artificial
	m       int // rows
	stride  int // nTotal + 1 (rhs column)

	tab  []float64 // m * stride dense tableau
	cost []float64 // nTotal reduced costs for the current phase
	ub   []float64 // nTotal upper bounds (shifted space)

	objCost []float64 // nTotal phase-2 costs (internal minimize space)

	basis []int      // m: variable index basic in each row
	state []varState // nTotal
	beta  []float64  // m: current basic values

	// cols is scratch for an ascending column-index list: the pivot row's
	// nonzeros in pivot, the at-upper columns in refreshBeta. Its capacity
	// is the stride, so neither ever allocates.
	cols []int32

	firstArt int // index of first artificial column; nTotal if none

	// Original-problem bookkeeping for solution extraction.
	lbShift  []float64 // per structural var
	objConst float64   // constant added to objective by the shift
	negate   bool      // problem was a maximization
	rowFlip  []bool    // row was negated during rhs normalization
	rowUnit  []int     // +1 unit column per row (slack or artificial)

	tol      float64
	maxIters int
	iters    int

	degenStreak int // consecutive (near-)zero-step iterations
	blandCount  int // times the degeneracy streak forced Bland's rule on

	// warm records that installBasis succeeded: the current basis is
	// primal-feasible with artificials frozen at zero, so solve skips
	// phase 1 outright.
	warm bool
}

const degenSwitch = 400 // switch to Bland's rule after this many degenerate steps

func newSimplex(p *Problem, opts Options) *simplex {
	tol := opts.Tol
	if tol == 0 {
		tol = 1e-9
	}

	n := len(p.vars)
	m := len(p.cons)

	s := &simplex{
		nStruct: n,
		m:       m,
		tol:     tol,
		negate:  p.sense == Maximize,
	}

	// Shift variables to zero lower bounds; record per-row rhs adjustments.
	s.lbShift = make([]float64, n)
	ub := make([]float64, 0, n+2*m)
	cost := make([]float64, 0, n+2*m)
	for i, v := range p.vars {
		s.lbShift[i] = v.lb
		ub = append(ub, v.ub-v.lb)
		c := v.cost
		if s.negate {
			c = -c
		}
		cost = append(cost, c)
		s.objConst += v.cost * v.lb
	}

	// Row operators and right-hand sides, adjusted for the shift and then
	// normalized to rhs >= 0. The coefficients go straight into the tableau
	// once its width is known.
	type rowSpec struct {
		op  Op
		rhs float64
	}
	rows := make([]rowSpec, m)
	s.rowFlip = make([]bool, m)
	for r, c := range p.cons {
		rhs := c.rhs
		for _, t := range c.terms {
			rhs -= t.Coef * s.lbShift[t.Var]
		}
		op := c.op
		if rhs < 0 {
			s.rowFlip[r] = true
			rhs = -rhs
			switch op {
			case LE:
				op = GE
			case GE:
				op = LE
			}
		}
		rows[r] = rowSpec{op: op, rhs: rhs}
	}

	// Assign slack/surplus columns, then artificial columns.
	slackCol := make([]int, m)  // -1 if none
	slackSign := make([]int, m) // +1 slack, -1 surplus
	next := n
	for r := range rows {
		switch rows[r].op {
		case LE:
			slackCol[r], slackSign[r] = next, +1
			next++
		case GE:
			slackCol[r], slackSign[r] = next, -1
			next++
		default:
			slackCol[r] = -1
		}
	}
	s.firstArt = next
	artCol := make([]int, m) // -1 if the slack can start basic
	for r := range rows {
		if rows[r].op == LE {
			artCol[r] = -1 // slack starts basic at rhs >= 0
		} else {
			artCol[r] = next
			next++
		}
	}
	s.nTotal = next
	s.stride = next + 1

	// Record the +1 unit column of each row for dual recovery: the
	// artificial where present, else the (+1) slack of an LE row.
	s.rowUnit = make([]int, m)
	for r := range rows {
		if artCol[r] >= 0 {
			s.rowUnit[r] = artCol[r]
		} else {
			s.rowUnit[r] = slackCol[r]
		}
	}

	// Extend bounds/costs to slack+artificial columns.
	for len(ub) < s.nTotal {
		ub = append(ub, math.Inf(1))
		cost = append(cost, 0)
	}
	s.ub = ub
	s.objCost = cost

	// Build the tableau: duplicate terms are summed in term order, and a
	// flipped row is negated across every structural column, zeros included.
	s.tab = make([]float64, m*s.stride)
	s.cols = make([]int32, 0, s.stride)
	for r, c := range p.cons {
		row := s.tab[r*s.stride : (r+1)*s.stride]
		for _, t := range c.terms {
			row[t.Var] += t.Coef
		}
		if s.rowFlip[r] {
			for j := 0; j < n; j++ {
				row[j] = -row[j]
			}
		}
		if slackCol[r] >= 0 {
			row[slackCol[r]] = float64(slackSign[r])
		}
		if artCol[r] >= 0 {
			row[artCol[r]] = 1
		}
		row[s.nTotal] = rows[r].rhs
	}

	// Initial basis and states.
	s.basis = make([]int, m)
	s.state = make([]varState, s.nTotal)
	s.beta = make([]float64, m)
	for r := range rows {
		b := artCol[r]
		if b < 0 {
			b = slackCol[r]
		}
		s.basis[r] = b
		s.state[b] = basic
		s.beta[r] = rows[r].rhs
	}

	s.maxIters = opts.MaxIters
	if s.maxIters == 0 {
		s.maxIters = 200*(m+s.nTotal) + 20000
	}
	return s
}

// phase1Costs loads the phase-1 objective (sum of artificials) as reduced
// costs relative to the initial basis.
func (s *simplex) phase1Costs() {
	s.cost = make([]float64, s.nTotal)
	// c_j - sum_i c_B(i) T[i][j], with c = 1 on artificials, 0 elsewhere.
	// Initially T = A and the only basic artificials are in their own rows,
	// so the reduced cost of column j is -sum over artificial rows of A[r][j]
	// (and 0 for the artificial columns themselves).
	for r := 0; r < s.m; r++ {
		if s.basis[r] < s.firstArt {
			continue
		}
		row := s.tab[r*s.stride : r*s.stride+s.nTotal]
		for j, a := range row {
			if a != 0 {
				s.cost[j] -= a
			}
		}
	}
	for j := s.firstArt; j < s.nTotal; j++ {
		s.cost[j]++ // own cost 1; cancels the -1 picked up above when basic
	}
	// Basic columns must have zero reduced cost exactly.
	for _, b := range s.basis {
		s.cost[b] = 0
	}
}

// phase2Costs recomputes reduced costs for the real objective against the
// current basis: rc_j = c_j - sum_i c_B(i) * T[i][j].
func (s *simplex) phase2Costs() {
	s.cost = make([]float64, s.nTotal)
	copy(s.cost, s.objCost)
	for r := 0; r < s.m; r++ {
		cb := s.objCost[s.basis[r]]
		if cb == 0 {
			continue
		}
		row := s.tab[r*s.stride : r*s.stride+s.nTotal]
		for j, a := range row {
			if a != 0 {
				s.cost[j] -= cb * a
			}
		}
	}
	for _, b := range s.basis {
		s.cost[b] = 0
	}
}

// refreshBeta recomputes current basic values exactly from the transformed
// rhs column and the set of nonbasic-at-upper variables. It walks the
// tableau row by row, subtracting each row's at-upper terms in ascending
// column order.
func (s *simplex) refreshBeta() {
	up := s.cols[:0]
	for j := 0; j < s.nTotal; j++ {
		if s.state[j] == atUpper {
			up = append(up, int32(j))
		}
	}
	for r := 0; r < s.m; r++ {
		row := s.tab[r*s.stride : (r+1)*s.stride]
		b := row[s.nTotal]
		for _, j := range up {
			if a := row[j]; a != 0 {
				b -= a * s.ub[j]
			}
		}
		s.beta[r] = b
	}
}

// price selects an entering variable. dir=+1 means the variable will
// increase from its lower bound; dir=-1 means it will decrease from its
// upper bound. Returns j=-1 at optimality.
func (s *simplex) price(bland bool) (j, dir int) {
	j, dir = -1, 0
	rcTol := math.Max(s.tol, 1e-7)
	if bland {
		for k := 0; k < s.nTotal; k++ {
			switch s.state[k] {
			case atLower:
				if s.cost[k] < -rcTol {
					return k, +1
				}
			case atUpper:
				if s.cost[k] > rcTol {
					return k, -1
				}
			}
		}
		return -1, 0
	}
	best := rcTol
	for k := 0; k < s.nTotal; k++ {
		switch s.state[k] {
		case atLower:
			if rc := -s.cost[k]; rc > best {
				best, j, dir = rc, k, +1
			}
		case atUpper:
			if rc := s.cost[k]; rc > best {
				best, j, dir = rc, k, -1
			}
		}
	}
	return j, dir
}

// ratio runs the bounded-variable ratio test for entering column j moving
// with direction dir. It returns the step length t, the limiting row (or -1
// for a bound flip on the entering variable), and whether the leaving basic
// variable exits at its upper bound.
func (s *simplex) ratio(j, dir int) (t float64, limRow int, leaveUpper bool, unbounded bool) {
	const pivTol = 1e-8
	t = s.ub[j] // bound-flip distance; may be +Inf
	limRow = -1
	d := float64(dir)
	bestPiv := 0.0
	for r := 0; r < s.m; r++ {
		a := d * s.tab[r*s.stride+j]
		if a > pivTol {
			// Basic variable decreases toward 0.
			tr := s.beta[r] / a
			if tr < 0 {
				tr = 0
			}
			if tr < t-1e-9 || (tr < t+1e-9 && math.Abs(a) > bestPiv && limRow >= 0) {
				t, limRow, leaveUpper, bestPiv = tr, r, false, math.Abs(a)
			}
		} else if a < -pivTol {
			ubB := s.ub[s.basis[r]]
			if math.IsInf(ubB, 1) {
				continue
			}
			// Basic variable increases toward its upper bound.
			tr := (ubB - s.beta[r]) / (-a)
			if tr < 0 {
				tr = 0
			}
			if tr < t-1e-9 || (tr < t+1e-9 && math.Abs(a) > bestPiv && limRow >= 0) {
				t, limRow, leaveUpper, bestPiv = tr, r, true, math.Abs(a)
			}
		}
	}
	if math.IsInf(t, 1) {
		return 0, -1, false, true
	}
	return t, limRow, leaveUpper, false
}

// pivot performs the elimination step making column j basic in row r. It
// scales the pivot row, records the row's nonzero columns, and updates the
// other rows and the cost row over those columns only.
func (s *simplex) pivot(r, j int) {
	stride := s.stride
	prow := s.tab[r*stride : (r+1)*stride]
	inv := 1 / prow[j]
	nz := s.cols[:0]
	for k := range prow {
		prow[k] *= inv
		if prow[k] != 0 {
			nz = append(nz, int32(k))
		}
	}
	prow[j] = 1 // exact
	for i := 0; i < s.m; i++ {
		if i == r {
			continue
		}
		row := s.tab[i*stride : (i+1)*stride]
		f := row[j]
		if f == 0 {
			continue
		}
		for _, k := range nz {
			row[k] -= f * prow[k]
		}
		row[j] = 0 // exact
	}
	// Cost row (absent during installBasis, before a phase loads one). It
	// has no rhs entry, which is the last nonzero column when present.
	if s.cost == nil {
		return
	}
	if f := s.cost[j]; f != 0 {
		if last := len(nz) - 1; nz[last] == int32(s.nTotal) {
			nz = nz[:last]
		}
		for _, k := range nz {
			s.cost[k] -= f * prow[k]
		}
		s.cost[j] = 0
	}
}

// iterate runs simplex iterations on the current phase objective until
// optimality, unboundedness, or the iteration limit.
func (s *simplex) iterate() Status {
	sinceRefresh := 0
	for {
		if s.iters >= s.maxIters {
			return StatusIterLimit
		}
		s.iters++
		sinceRefresh++
		if sinceRefresh >= 128 {
			s.refreshBeta()
			sinceRefresh = 0
		}

		j, dir := s.price(s.degenStreak > degenSwitch)
		if j < 0 {
			return StatusOptimal
		}
		t, limRow, leaveUpper, unbounded := s.ratio(j, dir)
		if unbounded {
			return StatusUnbounded
		}
		if t <= 1e-12 {
			s.degenStreak++
			if s.degenStreak == degenSwitch+1 {
				s.blandCount++ // the next price call switches to Bland
			}
		} else {
			s.degenStreak = 0
		}

		// Step: move entering by t in direction dir; basics absorb.
		d := float64(dir)
		if t != 0 {
			for r := 0; r < s.m; r++ {
				if a := s.tab[r*s.stride+j]; a != 0 {
					s.beta[r] -= d * t * a
				}
			}
		}

		if limRow < 0 {
			// Bound flip: entering traverses to its other bound.
			if s.state[j] == atLower {
				s.state[j] = atUpper
			} else {
				s.state[j] = atLower
			}
			continue
		}

		leave := s.basis[limRow]
		var enterVal float64
		if s.state[j] == atLower {
			enterVal = t
		} else {
			enterVal = s.ub[j] - t
		}
		s.pivot(limRow, j)
		s.basis[limRow] = j
		s.state[j] = basic
		if leaveUpper {
			s.state[leave] = atUpper
		} else {
			s.state[leave] = atLower
		}
		// Clamp tiny negative drift.
		if enterVal < 0 && enterVal > -1e-9 {
			enterVal = 0
		}
		s.beta[limRow] = enterVal
	}
}

// phase1Objective sums the current values of the artificial variables.
func (s *simplex) phase1Objective() float64 {
	sum := 0.0
	for r := 0; r < s.m; r++ {
		if s.basis[r] >= s.firstArt {
			sum += s.beta[r]
		}
	}
	for j := s.firstArt; j < s.nTotal; j++ {
		if s.state[j] == atUpper {
			sum += s.ub[j] // unreachable in practice: artificial ub is +Inf
		}
	}
	return sum
}

// solve runs both phases and extracts the solution.
func (s *simplex) solve() (*Solution, error) {
	feasTol := math.Max(1e-7, s.tol*100)

	phase1Iters := 0
	if s.firstArt < s.nTotal && !s.warm {
		s.phase1Costs()
		st := s.iterate()
		phase1Iters = s.iters
		if st == StatusIterLimit {
			return &Solution{Status: StatusIterLimit, Iters: s.iters, Stats: s.stats(phase1Iters)}, nil
		}
		s.refreshBeta()
		if s.phase1Objective() > feasTol {
			return &Solution{Status: StatusInfeasible, Iters: s.iters, Stats: s.stats(phase1Iters)}, nil
		}
		// Freeze artificials at zero so phase 2 cannot reactivate them.
		for j := s.firstArt; j < s.nTotal; j++ {
			s.ub[j] = 0
		}
		s.driveOutArtificials()
	}

	s.phase2Costs()
	s.degenStreak = 0
	st := s.iterate()
	s.refreshBeta()

	sol := &Solution{Status: st, Iters: s.iters, Stats: s.stats(phase1Iters)}
	if st == StatusOptimal {
		sol.Duals = s.extractDuals()
		sol.Basis = s.captureBasis()
	}
	if st == StatusOptimal || st == StatusIterLimit {
		sol.X = s.extractX()
		obj := s.objConst
		for i := 0; i < s.nStruct; i++ {
			// objConst already includes cost*lb; add cost*(shifted value).
			c := s.objCost[i]
			if s.negate {
				c = -c
			}
			obj += c * (sol.X[i] - s.lbShift[i])
		}
		sol.Objective = obj
	}
	return sol, nil
}

// stats assembles the deterministic solve counters given the number of
// iterations the first phase consumed.
func (s *simplex) stats(phase1Iters int) SolveStats {
	return SolveStats{
		Phase1Iters:      phase1Iters,
		Phase2Iters:      s.iters - phase1Iters,
		BlandActivations: s.blandCount,
	}
}

// driveOutArtificials pivots basic artificial variables (all at value zero
// after a successful phase 1) onto non-artificial columns where possible.
// Rows where no eligible pivot exists are redundant; their artificial stays
// basic at zero with an upper bound of zero, which is harmless.
//
// beta is refreshed once, after the last pivot: nothing here reads it, and
// a refresh depends only on the tableau and the bound states, so one refresh
// at the end gives the values a refresh after every pivot would end with.
func (s *simplex) driveOutArtificials() {
	pivoted := false
	for r := 0; r < s.m; r++ {
		if s.basis[r] < s.firstArt {
			continue
		}
		row := s.tab[r*s.stride : r*s.stride+s.nTotal]
		pick, best := -1, 1e-7
		for j := 0; j < s.firstArt; j++ {
			if s.state[j] == basic {
				continue
			}
			if a := math.Abs(row[j]); a > best {
				pick, best = j, a
			}
		}
		if pick < 0 {
			continue
		}
		old := s.basis[r]
		// The incoming variable keeps its value (0, or ub[pick] if it rested
		// at its upper bound) while the artificial leaves at zero: a
		// degenerate pivot that preserves feasibility for any bound state of
		// pick.
		s.pivot(r, pick)
		s.basis[r] = pick
		s.state[pick] = basic
		s.state[old] = atLower
		pivoted = true
	}
	if pivoted {
		s.refreshBeta()
	}
}

// extractDuals recovers the dual value (shadow price d objective / d rhs,
// in the problem's original sense and row orientation) of every
// constraint. For the internal minimization, the dual of row i is
// y_i = c_B B^-1 e_i, and since every row carries a zero-cost +1 unit
// column u with current reduced cost rc_u = 0 - y_i, we read y_i = -rc_u.
func (s *simplex) extractDuals() []float64 {
	duals := make([]float64, s.m)
	for r := 0; r < s.m; r++ {
		y := -s.cost[s.rowUnit[r]]
		if s.rowFlip[r] {
			y = -y
		}
		if s.negate {
			y = -y
		}
		duals[r] = y
	}
	return duals
}

// extractX reads variable values in original (unshifted) space.
func (s *simplex) extractX() []float64 {
	x := make([]float64, s.nStruct)
	for j := 0; j < s.nStruct; j++ {
		switch s.state[j] {
		case atLower:
			x[j] = 0
		case atUpper:
			x[j] = s.ub[j]
		}
	}
	for r := 0; r < s.m; r++ {
		if b := s.basis[r]; b < s.nStruct {
			x[b] = s.beta[r]
		}
	}
	for j := 0; j < s.nStruct; j++ {
		if x[j] < 0 && x[j] > -1e-9 {
			x[j] = 0
		}
		x[j] += s.lbShift[j]
	}
	return x
}
