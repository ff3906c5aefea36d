package lp

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"testing"
)

// updateGolden rewrites testdata/solve_golden.json from the solver under
// test. The file pins every optimum bit for bit, so only an intended change
// to the pivot path (a new pricing rule, a different tolerance) may
// regenerate it; a change to how a pivot is computed must reproduce it.
var updateGolden = flag.Bool("update-golden", false, "rewrite internal/lp/testdata/solve_golden.json")

const goldenPath = "testdata/solve_golden.json"

// goldenSolve is a Solution with every float stored as its IEEE-754 bit
// pattern, so "the last ULP moved" is a plain integer diff.
type goldenSolve struct {
	Status    Status     `json:"status"`
	Objective uint64     `json:"obj"`
	X         []uint64   `json:"x,omitempty"`
	Duals     []uint64   `json:"duals,omitempty"`
	Iters     int        `json:"iters"`
	Stats     SolveStats `json:"stats"`
	Basis     *Basis     `json:"basis,omitempty"`
}

func toGoldenSolve(sol *Solution) goldenSolve {
	g := goldenSolve{
		Status: sol.Status, Objective: math.Float64bits(sol.Objective),
		Iters: sol.Iters, Stats: sol.Stats, Basis: sol.Basis,
	}
	for _, x := range sol.X {
		g.X = append(g.X, math.Float64bits(x))
	}
	for _, y := range sol.Duals {
		// A dual is read off the reduced cost of a row's unit column, and an
		// elimination step that skips a zero entry (x - f*0) may leave a zero
		// there with the other sign. No comparison in the simplex can see the
		// sign of a zero, so the pivot path, X, the objective and the basis
		// are unaffected; the dual golden treats -0 and +0 as one value.
		if y == 0 {
			y = 0
		}
		g.Duals = append(g.Duals, math.Float64bits(y))
	}
	return g
}

// goldenSolveCases solves every LP the golden file pins and returns the
// results keyed by case name. Every optimum must carry its certificate
// (certify_test.go); a presolved one, which has no duals, must be primal
// feasible and match the certified optimum of the same LP solved plainly.
func goldenSolveCases(t *testing.T) map[string]goldenSolve {
	t.Helper()
	out := map[string]goldenSolve{}
	solve := func(name string, p *Problem, opts Options) *Solution {
		sol, err := p.SolveOpts(opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sol.Status == StatusOptimal {
			if err := certifyGolden(p, sol, opts); err != nil {
				t.Errorf("%s: no certificate: %v", name, err)
			}
		}
		out[name] = toGoldenSolve(sol)
		return sol
	}

	for _, sz := range []struct{ nodes, units int }{{11, 100}, {50, 600}} {
		solve(fmt.Sprintf("deployment/n%d_u%d", sz.nodes, sz.units), buildDeploymentLP(sz.nodes, sz.units, 7), Options{})
	}
	for _, sz := range []struct{ nodes, rules, paths int }{{11, 10, 10}, {22, 15, 12}} {
		solve(fmt.Sprintf("packing/n%d_r%d_p%d", sz.nodes, sz.rules, sz.paths), buildPackingLP(sz.nodes, sz.rules, sz.paths, 3), Options{})
	}

	// Warm start from a donor solved on other volumes: the donor's basis is
	// factored, then repaired where the new coefficients push a basic
	// variable past its bound.
	base := testVols(60, func(int) float64 { return 1 })
	drifted := testVols(60, func(u int) float64 { return 1 + 0.3*math.Sin(float64(u)) })
	donor := solve("placement/donor", placementLike(60, 10, base), Options{})
	solve("placement/cold", placementLike(60, 10, drifted), Options{})
	solve("placement/warm", placementLike(60, 10, drifted), Options{WarmBasis: donor.Basis})

	solve("presolve/pinned", presolveFodderLP(), Options{Presolve: true})
	solve("flipped/maximize", flippedRowsLP(), Options{})
	solve("artificials/transport", transportLP(7, 9, 13), Options{})

	for i, p := range goldenRandomLPs() {
		name := fmt.Sprintf("random/%03d", i)
		sol := solve(name, p, Options{})
		if sol.Status == StatusOptimal {
			solve(name+"/warm", p, Options{WarmBasis: sol.Basis})
		}
	}
	return out
}

// certifyGolden certifies one golden optimum (see goldenSolveCases).
func certifyGolden(p *Problem, sol *Solution, opts Options) error {
	const tol = 1e-9
	if !opts.Presolve {
		return certify(p, sol, tol, false)
	}
	if err := primalFeasible(p, sol, tol); err != nil {
		return err
	}
	plain, err := p.Solve()
	if err != nil {
		return err
	}
	if err := certify(p, plain, tol, false); err != nil {
		return fmt.Errorf("plain solve: %v", err)
	}
	if math.Abs(plain.Objective-sol.Objective) > tol*(1+math.Abs(plain.Objective)) {
		return fmt.Errorf("objective %v, plain solve %v", sol.Objective, plain.Objective)
	}
	return nil
}

// flippedRowsLP is a maximization over shifted variables whose rows are
// built around a known feasible point with mostly negative coefficients, so
// most right-hand sides are negative and the solver normalizes them by
// negating the row (LE <-> GE; EQ stays EQ).
func flippedRowsLP() *Problem {
	rng := rand.New(rand.NewSource(31))
	const n, m = 14, 12
	p := New(Maximize)
	x0 := make([]float64, n)
	vars := make([]Var, n)
	for j := range vars {
		lb := float64(rng.Intn(5) - 2)
		ub := lb + 1 + float64(rng.Intn(6))
		x0[j] = lb + (ub-lb)*rng.Float64()
		vars[j] = p.AddVar(float64(rng.Intn(9)-3), lb, ub)
	}
	for i := 0; i < m; i++ {
		var terms []Term
		lhs := 0.0
		for _, j := range rng.Perm(n)[:2+rng.Intn(5)] {
			c := -0.25 * float64(1+rng.Intn(12))
			if rng.Intn(4) == 0 {
				c = -c
			}
			terms = append(terms, Term{vars[j], c})
			lhs += c * x0[j]
		}
		switch op := Op(i % 3); op {
		case LE:
			p.AddConstraint(terms, LE, lhs+rng.Float64())
		case GE:
			p.AddConstraint(terms, GE, lhs-rng.Float64())
		default:
			p.AddConstraint(terms, EQ, lhs)
		}
	}
	return p
}

// transportLP is a balanced transportation problem: supply rows are
// equalities and demand rows GE, with totals equal so every demand binds.
// The degenerate phase-1 optimum leaves an artificial basic at zero for
// driveOutArtificials to pivot out.
func transportLP(supplies, demands int, seed int64) *Problem {
	rng := rand.New(rand.NewSource(seed))
	p := New(Minimize)
	supply := make([]float64, supplies)
	demand := make([]float64, demands)
	total := 0.0
	for i := range supply {
		supply[i] = float64(5 + rng.Intn(20))
		total += supply[i]
	}
	left := total
	for k := range demand {
		if k == demands-1 {
			demand[k] = left
			break
		}
		demand[k] = math.Floor(total / float64(demands))
		left -= demand[k]
	}
	x := make([][]Var, supplies)
	for i := range x {
		x[i] = make([]Var, demands)
		for k := range x[i] {
			x[i][k] = p.AddVar(float64(1+rng.Intn(9)), 0, Inf())
		}
	}
	for i := range supply {
		terms := make([]Term, demands)
		for k := range terms {
			terms[k] = Term{x[i][k], 1}
		}
		p.AddConstraint(terms, EQ, supply[i])
	}
	for k := range demand {
		terms := make([]Term, supplies)
		for i := range terms {
			terms[i] = Term{x[i][k], 1}
		}
		p.AddConstraint(terms, GE, demand[k])
	}
	return p
}

// goldenRandomLPs draws the golden's 200 random LPs from its fixed seed.
func goldenRandomLPs() []*Problem {
	rng := rand.New(rand.NewSource(20261015))
	ps := make([]*Problem, 200)
	for i := range ps {
		ps[i] = randomBoundedLP(rng)
	}
	return ps
}

// randomBoundedLP draws a small LP on a dyadic grid: finite boxes (some with
// nonzero lower bounds), mixed operators, either sense. Rows are built
// around a grid point inside the box, so most draws are feasible; one row in
// eight takes an arbitrary rhs instead, and the golden records the
// infeasible status that sometimes gives.
func randomBoundedLP(rng *rand.Rand) *Problem {
	n := 2 + rng.Intn(7)
	m := 1 + rng.Intn(6)
	sense := Minimize
	if rng.Intn(2) == 0 {
		sense = Maximize
	}
	p := New(sense)
	vars := make([]Var, n)
	x0 := make([]float64, n)
	for j := range vars {
		lb := float64(rng.Intn(9)-4) / 4
		width := rng.Intn(32)
		ub := lb + float64(width)/4
		x0[j] = lb + float64(rng.Intn(width+1))/4
		vars[j] = p.AddVar(float64(rng.Intn(65)-32)/4, lb, ub)
	}
	for i := 0; i < m; i++ {
		var terms []Term
		lhs := 0.0
		for _, j := range rng.Perm(n)[:1+rng.Intn(n)] {
			if c := float64(rng.Intn(49)-24) / 4; c != 0 {
				terms = append(terms, Term{vars[j], c})
				lhs += c * x0[j]
			}
		}
		op := Op(rng.Intn(3))
		rhs := lhs
		switch {
		case rng.Intn(8) == 0:
			rhs = float64(rng.Intn(81)-24) / 4
		case op == LE:
			rhs += float64(rng.Intn(8)) / 4
		case op == GE:
			rhs -= float64(rng.Intn(8)) / 4
		}
		p.AddConstraint(terms, op, rhs)
	}
	return p
}

// TestSolveGolden holds the simplex to the optima the revised simplex
// reached when the file was captured: the objective, every primal value
// and dual as a bit pattern, the iteration counts and the final basis,
// across cold, warm, presolved, row-flipped, artificial-heavy and 200
// random LPs. Every optimum is also certified (goldenSolveCases).
func TestSolveGolden(t *testing.T) {
	got := goldenSolveCases(t)
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if *updateGolden {
		// One compact line per case keeps the file diffable.
		var buf bytes.Buffer
		buf.WriteString("{\n")
		for i, k := range keys {
			line, err := json.Marshal(got[k])
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&buf, "%q: %s", k, line)
			if i < len(keys)-1 {
				buf.WriteByte(',')
			}
			buf.WriteByte('\n')
		}
		buf.WriteString("}\n")
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d cases to %s", len(keys), goldenPath)
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update-golden on an intended pivot-path change)", err)
	}
	var want map[string]goldenSolve
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d cases, solver produced %d", len(want), len(got))
	}
	for _, k := range keys {
		w, ok := want[k]
		if !ok {
			t.Errorf("%s: not in golden file", k)
			continue
		}
		if diff := goldenSolveDiff(got[k], w); diff != "" {
			t.Errorf("%s: solver diverges from golden: %s", k, diff)
		}
	}
}

// goldenSolveDiff names the first field where got departs from want, or
// returns "" when they agree.
func goldenSolveDiff(got, want goldenSolve) string {
	if got.Status != want.Status {
		return fmt.Sprintf("status %v, want %v", got.Status, want.Status)
	}
	if got.Objective != want.Objective {
		return fmt.Sprintf("objective %v, want %v", math.Float64frombits(got.Objective), math.Float64frombits(want.Objective))
	}
	if got.Iters != want.Iters || got.Stats != want.Stats {
		return fmt.Sprintf("iters %d %+v, want %d %+v", got.Iters, got.Stats, want.Iters, want.Stats)
	}
	for _, v := range []struct {
		name      string
		got, want []uint64
	}{{"X", got.X, want.X}, {"Duals", got.Duals, want.Duals}} {
		if len(v.got) != len(v.want) {
			return fmt.Sprintf("%d %s, want %d", len(v.got), v.name, len(v.want))
		}
		for i := range v.got {
			if v.got[i] != v.want[i] {
				return fmt.Sprintf("%s[%d] = %v, want %v", v.name, i, math.Float64frombits(v.got[i]), math.Float64frombits(v.want[i]))
			}
		}
	}
	gb, _ := json.Marshal(got.Basis)
	wb, _ := json.Marshal(want.Basis)
	if !bytes.Equal(gb, wb) {
		return fmt.Sprintf("basis %s, want %s", gb, wb)
	}
	return ""
}
