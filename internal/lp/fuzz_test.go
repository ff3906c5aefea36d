package lp

import (
	"math"
	"testing"
)

// FuzzSolve cross-checks the simplex against brute-force vertex
// enumeration on small random LPs decoded from the fuzz input. Every
// variable gets finite bounds, so the feasible region is a polytope: when
// nonempty it has a vertex, every vertex is the solution of n linearly
// independent active conditions, and the optimum sits at one of them —
// which makes exhaustive enumeration of n-subsets of {rows as equalities,
// bounds} a complete oracle for both feasibility and the optimal value.
// The same decoded problem is also solved under presolve and re-solved
// warm from its own basis; all paths must agree. The plain and warm optima
// must also carry a dual certificate (certify_test.go; presolved solves
// report no duals). Every pricing and BTRAN step of every solve must match
// the reference kernels (kernels_ref_test.go).
func FuzzSolve(f *testing.F) {
	// Seed corpus: the degenerate structures from lp_test.go's hand-written
	// cases, re-expressed in the decoder's byte encoding.
	//
	// Layout per problem: [sense, nv, nc, var bytes (cost, ub) x nv,
	// row bytes (op, rhs, coef x nv) x nc].
	f.Add([]byte{0, 3, 3, // minimize, 3 vars, 3 rows
		// Beale-style setup: negative and positive costs, tight bounds.
		10, 8, 200, 4, 30, 8,
		// Two zero-rhs LE rows — the ratio-test ties at zero step that
		// drive Beale's cycling example — plus one bounding row.
		0, 128, 130, 100, 180, 0, 128, 160, 90, 140, 0, 140, 132, 132, 132})
	f.Add([]byte{0, 2, 2, // degenerate corner: two rows active at one point
		100, 10, 100, 10,
		0, 148, 132, 132, 0, 148, 136, 130})
	f.Add([]byte{1, 2, 3, // maximize with an EQ row and a GE row
		180, 12, 60, 6,
		2, 140, 134, 130, 1, 132, 128, 134, 0, 150, 134, 134})
	f.Add([]byte{0, 1, 1, 128, 0, 2, 128, 132})              // zero-width bound, EQ row
	f.Add([]byte{1, 3, 0, 200, 20, 10, 5, 128, 0})           // no rows: pure box
	f.Add([]byte{0, 2, 1, 120, 6, 140, 6, 1, 200, 130, 130}) // infeasible GE

	f.Fuzz(func(t *testing.T, data []byte) {
		d := decodeLP(data)
		if d == nil {
			return
		}
		_, restore := checkKernels(t.Fatalf)
		defer restore()
		p := d.problem()
		sol, err := p.SolveOpts(Options{})
		if err != nil {
			t.Fatalf("solve: %v (lp=%+v)", err, d)
		}
		feasible, best := d.bruteForce()

		const tol = 1e-6
		switch sol.Status {
		case StatusOptimal:
			if !feasible {
				t.Fatalf("solver optimal (obj=%v) but vertex enumeration finds no feasible point (lp=%+v)", sol.Objective, d)
			}
			if math.Abs(sol.Objective-best) > tol*(1+math.Abs(best)) {
				t.Fatalf("solver objective %v, brute force %v (lp=%+v)", sol.Objective, best, d)
			}
			if !d.pointFeasible(sol.X, tol) {
				t.Fatalf("solver point %v violates constraints (lp=%+v)", sol.X, d)
			}
			if err := certify(p, sol, tol, false); err != nil {
				t.Fatalf("duals %v do not certify x=%v: %v (lp=%+v)", sol.Duals, sol.X, err, d)
			}
		case StatusInfeasible:
			if feasible {
				t.Fatalf("solver infeasible but brute force found obj=%v (lp=%+v)", best, d)
			}
		default:
			// All bounds are finite, so unbounded is impossible; the default
			// iteration budget dwarfs these sizes.
			t.Fatalf("unexpected status %v (lp=%+v)", sol.Status, d)
		}

		// Presolve must agree with the plain solve.
		psol, err := d.problem().SolveOpts(Options{Presolve: true})
		if err != nil {
			t.Fatalf("presolve solve: %v (lp=%+v)", err, d)
		}
		if psol.Status != sol.Status {
			t.Fatalf("presolve status %v != plain %v (lp=%+v)", psol.Status, sol.Status, d)
		}
		if sol.Status == StatusOptimal && math.Abs(psol.Objective-sol.Objective) > tol*(1+math.Abs(sol.Objective)) {
			t.Fatalf("presolve objective %v != plain %v (lp=%+v)", psol.Objective, sol.Objective, d)
		}

		// Warm restart from the solve's own basis must reproduce it.
		if sol.Status == StatusOptimal {
			wsol, err := d.problem().SolveOpts(Options{WarmBasis: sol.Basis})
			if err != nil {
				t.Fatalf("warm solve: %v (lp=%+v)", err, d)
			}
			if wsol.Status != StatusOptimal || math.Abs(wsol.Objective-sol.Objective) > tol*(1+math.Abs(sol.Objective)) {
				t.Fatalf("warm restart status %v obj %v != optimal %v (lp=%+v)", wsol.Status, wsol.Objective, sol.Objective, d)
			}
			if err := certify(p, wsol, tol, false); err != nil {
				t.Fatalf("warm duals %v do not certify x=%v: %v (lp=%+v)", wsol.Duals, wsol.X, err, d)
			}
		}
	})
}

// denseLP is the decoded fuzz problem: minimize/maximize c·x subject to
// rows and box bounds 0 <= x <= ub (ub finite).
type denseLP struct {
	Max  bool
	Cost []float64
	UB   []float64
	Rows [][]float64
	Ops  []Op
	RHS  []float64
}

// decodeLP maps fuzz bytes onto a small LP with all values snapped to a
// dyadic grid (quarters), so both the solver and the enumeration oracle
// compute near-exactly and tolerance flakes cannot arise at boundaries.
func decodeLP(data []byte) *denseLP {
	next := func() (byte, bool) {
		if len(data) == 0 {
			return 0, false
		}
		b := data[0]
		data = data[1:]
		return b, true
	}
	sense, ok := next()
	if !ok {
		return nil
	}
	nvb, ok := next()
	if !ok {
		return nil
	}
	ncb, ok := next()
	if !ok {
		return nil
	}
	nv := 1 + int(nvb)%3 // 1..3 variables
	nc := int(ncb) % 4   // 0..3 rows

	d := &denseLP{Max: sense&1 == 1}
	for i := 0; i < nv; i++ {
		cb, ok := next()
		if !ok {
			return nil
		}
		ub, ok := next()
		if !ok {
			return nil
		}
		// Costs in [-16, 15.75] step 0.25; bounds in [0, 7.75] step 0.25
		// (a zero-width box pins the variable — a degenerate case worth
		// keeping).
		d.Cost = append(d.Cost, (float64(cb)-128)/8)
		d.UB = append(d.UB, float64(ub%32)/4)
	}
	for r := 0; r < nc; r++ {
		opb, ok := next()
		if !ok {
			return nil
		}
		rb, ok := next()
		if !ok {
			return nil
		}
		row := make([]float64, nv)
		zero := true
		for i := 0; i < nv; i++ {
			cb, ok := next()
			if !ok {
				return nil
			}
			// Coefficients in [-16, 15.75] step 0.25.
			row[i] = (float64(cb) - 128) / 4
			if row[i] != 0 {
				zero = false
			}
		}
		if zero {
			continue // empty rows are presolve's job, not the oracle's
		}
		d.Rows = append(d.Rows, row)
		d.Ops = append(d.Ops, Op(opb%3))
		d.RHS = append(d.RHS, (float64(rb)-128)/4)
	}
	return d
}

// problem builds the lp.Problem form.
func (d *denseLP) problem() *Problem {
	sense := Minimize
	if d.Max {
		sense = Maximize
	}
	p := New(sense)
	vars := make([]Var, len(d.Cost))
	for i := range d.Cost {
		vars[i] = p.AddVar(d.Cost[i], 0, d.UB[i])
	}
	for r := range d.Rows {
		var terms []Term
		for i, c := range d.Rows[r] {
			if c != 0 {
				terms = append(terms, Term{vars[i], c})
			}
		}
		p.AddConstraint(terms, d.Ops[r], d.RHS[r])
	}
	return p
}

// pointFeasible checks x against rows and bounds.
func (d *denseLP) pointFeasible(x []float64, tol float64) bool {
	for i := range x {
		if x[i] < -tol || x[i] > d.UB[i]+tol {
			return false
		}
	}
	for r := range d.Rows {
		v := 0.0
		for i, c := range d.Rows[r] {
			v += c * x[i]
		}
		switch d.Ops[r] {
		case LE:
			if v > d.RHS[r]+tol {
				return false
			}
		case GE:
			if v < d.RHS[r]-tol {
				return false
			}
		case EQ:
			if math.Abs(v-d.RHS[r]) > tol {
				return false
			}
		}
	}
	return true
}

// bruteForce enumerates every candidate vertex: each n-subset of the
// active-condition pool (rows as equalities, x_i = 0, x_i = ub_i), solved
// as an n x n linear system. The region is a bounded polytope, so it is
// nonempty iff some candidate is feasible, and the optimum is attained at
// one of them.
func (d *denseLP) bruteForce() (feasible bool, best float64) {
	n := len(d.Cost)
	var pool []vertexCond
	for r := range d.Rows {
		pool = append(pool, vertexCond{d.Rows[r], d.RHS[r]})
	}
	for i := 0; i < n; i++ {
		unit := make([]float64, n)
		unit[i] = 1
		pool = append(pool, vertexCond{unit, 0})
		pool = append(pool, vertexCond{unit, d.UB[i]})
	}

	best = math.Inf(1)
	if d.Max {
		best = math.Inf(-1)
	}
	idx := make([]int, n)
	var rec func(start, k int)
	rec = func(start, k int) {
		if k == n {
			x, ok := solveSquare(pool, idx, n)
			if !ok || !d.pointFeasible(x, 1e-7) {
				return
			}
			obj := 0.0
			for i := range x {
				obj += d.Cost[i] * x[i]
			}
			feasible = true
			if d.Max {
				best = math.Max(best, obj)
			} else {
				best = math.Min(best, obj)
			}
			return
		}
		for i := start; i <= len(pool)-(n-k); i++ {
			idx[k] = i
			rec(i+1, k+1)
		}
	}
	rec(0, 0)
	return feasible, best
}

// vertexCond is one active condition of the enumeration: coef·x = rhs.
type vertexCond struct {
	coef []float64
	rhs  float64
}

// solveSquare solves the n x n system formed by the chosen conditions via
// Gaussian elimination with partial pivoting; ok is false for (near-)
// singular systems, which simply aren't vertices.
func solveSquare(pool []vertexCond, idx []int, n int) ([]float64, bool) {
	a := make([][]float64, n)
	b := make([]float64, n)
	for k := 0; k < n; k++ {
		a[k] = append([]float64(nil), pool[idx[k]].coef...)
		b[k] = pool[idx[k]].rhs
	}
	for col := 0; col < n; col++ {
		piv, pv := -1, 1e-9
		for r := col; r < n; r++ {
			if v := math.Abs(a[r][col]); v > pv {
				piv, pv = r, v
			}
		}
		if piv < 0 {
			return nil, false
		}
		a[col], a[piv] = a[piv], a[col]
		b[col], b[piv] = b[piv], b[col]
		inv := 1 / a[col][col]
		for r := 0; r < n; r++ {
			if r == col || a[r][col] == 0 {
				continue
			}
			f := a[r][col] * inv
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = b[i] / a[i][i]
	}
	return x, true
}
