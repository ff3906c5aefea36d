package lp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// bruteForceLP exhaustively enumerates candidate vertices of a small LP in
// inequality form (A x <= b, 0 <= x <= u) by solving every n x n subsystem
// drawn from the active-set candidates {rows of A} ∪ {x_j = 0} ∪ {x_j = u_j}
// and keeping the best feasible point. Exponential — only for tiny n, m.
func bruteForceLP(c []float64, a [][]float64, b []float64, u []float64, maximize bool) (float64, bool) {
	n := len(c)
	// Candidate hyperplanes: each row of A (= b), each bound.
	type plane struct {
		coef []float64
		rhs  float64
	}
	var planes []plane
	for i := range a {
		planes = append(planes, plane{a[i], b[i]})
	}
	for j := 0; j < n; j++ {
		lo := make([]float64, n)
		lo[j] = 1
		planes = append(planes, plane{lo, 0})
		if !math.IsInf(u[j], 1) {
			hi := make([]float64, n)
			hi[j] = 1
			planes = append(planes, plane{hi, u[j]})
		}
	}
	feasible := func(x []float64) bool {
		for j := 0; j < n; j++ {
			if x[j] < -1e-7 || x[j] > u[j]+1e-7 {
				return false
			}
		}
		for i := range a {
			s := 0.0
			for j := 0; j < n; j++ {
				s += a[i][j] * x[j]
			}
			if s > b[i]+1e-7 {
				return false
			}
		}
		return true
	}
	best := math.Inf(-1)
	if !maximize {
		best = math.Inf(1)
	}
	found := false
	// Enumerate all n-subsets of planes (n <= 3 in practice).
	var idx []int
	var recurse func(start int)
	solve := func() {
		// Gaussian elimination on the n x n system.
		mat := make([][]float64, n)
		for r := 0; r < n; r++ {
			mat[r] = append(append([]float64{}, planes[idx[r]].coef...), planes[idx[r]].rhs)
		}
		for col := 0; col < n; col++ {
			piv := -1
			for r := col; r < n; r++ {
				if math.Abs(mat[r][col]) > 1e-9 && (piv < 0 || math.Abs(mat[r][col]) > math.Abs(mat[piv][col])) {
					piv = r
				}
			}
			if piv < 0 {
				return // singular
			}
			mat[col], mat[piv] = mat[piv], mat[col]
			f := mat[col][col]
			for k := col; k <= n; k++ {
				mat[col][k] /= f
			}
			for r := 0; r < n; r++ {
				if r == col {
					continue
				}
				g := mat[r][col]
				if g == 0 {
					continue
				}
				for k := col; k <= n; k++ {
					mat[r][k] -= g * mat[col][k]
				}
			}
		}
		x := make([]float64, n)
		for r := 0; r < n; r++ {
			x[r] = mat[r][n]
		}
		if !feasible(x) {
			return
		}
		found = true
		obj := 0.0
		for j := 0; j < n; j++ {
			obj += c[j] * x[j]
		}
		if maximize && obj > best {
			best = obj
		}
		if !maximize && obj < best {
			best = obj
		}
	}
	recurse = func(start int) {
		if len(idx) == n {
			solve()
			return
		}
		for i := start; i < len(planes); i++ {
			idx = append(idx, i)
			recurse(i + 1)
			idx = idx[:len(idx)-1]
		}
	}
	recurse(0)
	// Also check the origin (all at lower bound) in case n planes never
	// intersect feasibly but the box corner is feasible (it is one of the
	// enumerated vertices when bounds are planes, so this is redundant but
	// cheap insurance).
	if x0 := make([]float64, n); feasible(x0) {
		found = true
		if maximize {
			best = math.Max(best, 0)
		} else {
			best = math.Min(best, 0)
		}
	}
	return best, found
}

// TestRandomLPsAgainstBruteForce generates random small LPs with bounded
// feasible regions and verifies the simplex optimum matches exhaustive
// vertex enumeration.
func TestRandomLPsAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(12345))
	for trial := 0; trial < 400; trial++ {
		n := 2 + rng.Intn(2) // 2 or 3 variables
		m := 1 + rng.Intn(4) // 1..4 constraints
		c := make([]float64, n)
		u := make([]float64, n)
		for j := range c {
			c[j] = math.Round((rng.Float64()*10-5)*4) / 4
			u[j] = math.Round(rng.Float64()*8*4)/4 + 0.25 // finite => bounded region
		}
		a := make([][]float64, m)
		b := make([]float64, m)
		for i := range a {
			a[i] = make([]float64, n)
			for j := range a[i] {
				a[i][j] = math.Round((rng.Float64()*6-2)*4) / 4
			}
			b[i] = math.Round((rng.Float64()*10-1)*4) / 4
		}
		maximize := rng.Intn(2) == 0

		sense := Minimize
		if maximize {
			sense = Maximize
		}
		p := New(sense)
		vars := make([]Var, n)
		for j := 0; j < n; j++ {
			vars[j] = p.AddVar(c[j], 0, u[j])
		}
		for i := 0; i < m; i++ {
			terms := make([]Term, 0, n)
			for j := 0; j < n; j++ {
				if a[i][j] != 0 {
					terms = append(terms, Term{vars[j], a[i][j]})
				}
			}
			if len(terms) == 0 {
				continue
			}
			p.AddConstraint(terms, LE, b[i])
		}
		sol, err := p.Solve()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want, feasible := bruteForceLP(c, a, b, u, maximize)
		if !feasible {
			if sol.Status != StatusInfeasible {
				t.Fatalf("trial %d: brute force says infeasible, solver says %v", trial, sol.Status)
			}
			continue
		}
		if sol.Status != StatusOptimal {
			t.Fatalf("trial %d: status %v, brute force found optimum %v", trial, sol.Status, want)
		}
		if math.Abs(sol.Objective-want) > 1e-5*(1+math.Abs(want)) {
			t.Fatalf("trial %d: objective %v, brute force %v (n=%d m=%d max=%v c=%v a=%v b=%v u=%v)",
				trial, sol.Objective, want, n, m, maximize, c, a, b, u)
		}
		// The returned point must itself be feasible.
		for i := 0; i < m; i++ {
			s := 0.0
			for j := 0; j < n; j++ {
				s += a[i][j] * sol.X[j]
			}
			if s > b[i]+1e-6 {
				t.Fatalf("trial %d: solution violates constraint %d by %v", trial, i, s-b[i])
			}
		}
		for j := 0; j < n; j++ {
			if sol.X[j] < -1e-6 || sol.X[j] > u[j]+1e-6 {
				t.Fatalf("trial %d: solution violates bounds on var %d: %v not in [0,%v]", trial, j, sol.X[j], u[j])
			}
		}
	}
}

// TestQuickFeasibilityInvariant: for random feasible covering problems the
// solver always returns a point satisfying every constraint.
func TestQuickFeasibilityInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		p := New(Minimize)
		vars := make([]Var, n)
		for j := 0; j < n; j++ {
			vars[j] = p.AddVar(1+rng.Float64()*3, 0, Inf())
		}
		m := 1 + rng.Intn(4)
		type row struct {
			coef []float64
			rhs  float64
		}
		rows := make([]row, m)
		for i := 0; i < m; i++ {
			coef := make([]float64, n)
			nonzero := false
			for j := 0; j < n; j++ {
				if rng.Intn(2) == 0 {
					coef[j] = 0.5 + rng.Float64()*2
					nonzero = true
				}
			}
			if !nonzero {
				coef[rng.Intn(n)] = 1
			}
			rows[i] = row{coef, 1 + rng.Float64()*5}
			terms := make([]Term, 0, n)
			for j, cf := range coef {
				if cf != 0 {
					terms = append(terms, Term{vars[j], cf})
				}
			}
			p.AddConstraint(terms, GE, rows[i].rhs)
		}
		sol, err := p.Solve()
		if err != nil || sol.Status != StatusOptimal {
			return false // covering with nonneg coefs and rhs>0 is always feasible
		}
		for _, r := range rows {
			s := 0.0
			for j := 0; j < n; j++ {
				s += r.coef[j] * sol.X[j]
			}
			if s < r.rhs-1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickEqualitySplitInvariant mirrors the paper's coverage equality
// Eq. (1): random "coordination units" must be split exactly across eligible
// nodes, and the reported objective must equal the recomputed max load.
func TestQuickEqualitySplitInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		nodes := 2 + rng.Intn(4)
		units := 1 + rng.Intn(6)
		p := New(Minimize)
		lambda := p.AddVar(1, 0, Inf())
		type unitVar struct {
			v    Var
			node int
			load float64
		}
		var all [][]unitVar
		loadTerms := make([][]Term, nodes)
		for k := 0; k < units; k++ {
			sz := 1 + rng.Intn(nodes)
			perm := rng.Perm(nodes)[:sz]
			load := 0.5 + rng.Float64()*3
			var uvs []unitVar
			var cov []Term
			for _, nd := range perm {
				v := p.AddVar(0, 0, 1)
				uvs = append(uvs, unitVar{v, nd, load})
				cov = append(cov, Term{v, 1})
				loadTerms[nd] = append(loadTerms[nd], Term{v, load})
			}
			p.AddConstraint(cov, EQ, 1)
			all = append(all, uvs)
		}
		for nd := 0; nd < nodes; nd++ {
			terms := append([]Term{{lambda, -1}}, loadTerms[nd]...)
			p.AddConstraint(terms, LE, 0)
		}
		sol, err := p.Solve()
		if err != nil || sol.Status != StatusOptimal {
			return false
		}
		// Coverage sums to 1 per unit.
		nodeLoad := make([]float64, nodes)
		for _, uvs := range all {
			sum := 0.0
			for _, uv := range uvs {
				val := sol.Value(uv.v)
				if val < -1e-7 || val > 1+1e-7 {
					return false
				}
				sum += val
				nodeLoad[uv.node] += val * uv.load
			}
			if math.Abs(sum-1) > 1e-6 {
				return false
			}
		}
		maxLoad := 0.0
		for _, l := range nodeLoad {
			maxLoad = math.Max(maxLoad, l)
		}
		return math.Abs(maxLoad-sol.Objective) < 1e-5*(1+maxLoad)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestLargeSparseLPPerformanceSmoke checks the solver handles a mid-size
// structured instance (a few hundred rows) in reasonable time and returns a
// feasible optimum.
func TestLargeSparseLPPerformanceSmoke(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nodes, units := 12, 120
	p := New(Minimize)
	lambda := p.AddVar(1, 0, Inf())
	loadTerms := make([][]Term, nodes)
	for k := 0; k < units; k++ {
		sz := 2 + rng.Intn(3)
		perm := rng.Perm(nodes)[:sz]
		load := 0.5 + rng.Float64()*2
		var cov []Term
		for _, nd := range perm {
			v := p.AddVar(0, 0, 1)
			cov = append(cov, Term{v, 1})
			loadTerms[nd] = append(loadTerms[nd], Term{v, load})
		}
		p.AddConstraint(cov, EQ, 1)
	}
	for nd := 0; nd < nodes; nd++ {
		terms := append([]Term{{lambda, -1}}, loadTerms[nd]...)
		p.AddConstraint(terms, LE, 0)
	}
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if sol.Objective <= 0 {
		t.Fatalf("objective = %v, want > 0", sol.Objective)
	}
}
