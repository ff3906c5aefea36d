package lp

import (
	"fmt"
	"math/rand"
	"testing"
)

// buildDeploymentLP synthesizes a min-max load-balancing LP of the shape
// the NIDS planner emits: units x nodes coverage equalities plus per-node
// load rows.
func buildDeploymentLP(nodes, units int, seed int64) *Problem {
	rng := rand.New(rand.NewSource(seed))
	p := New(Minimize)
	lambda := p.AddVar(1, 0, Inf())
	loadTerms := make([][]Term, nodes)
	for k := 0; k < units; k++ {
		sz := 2 + rng.Intn(3)
		perm := rng.Perm(nodes)[:sz]
		load := 0.5 + rng.Float64()*2
		cov := make([]Term, 0, sz)
		for _, nd := range perm {
			v := p.AddVar(0, 0, 1)
			cov = append(cov, Term{v, 1})
			loadTerms[nd] = append(loadTerms[nd], Term{v, load})
		}
		p.AddConstraint(cov, EQ, 1)
	}
	for nd := 0; nd < nodes; nd++ {
		p.AddConstraint(append([]Term{{lambda, -1}}, loadTerms[nd]...), LE, 0)
	}
	return p
}

// buildPackingLP synthesizes a NIPS-relaxation-shaped packing LP: coverage
// and coupling inequalities with capacity rows.
func buildPackingLP(nodes, rules, paths int, seed int64) *Problem {
	rng := rand.New(rand.NewSource(seed))
	p := New(Maximize)
	eVars := make([][]Var, rules)
	camTerms := make([][]Term, nodes)
	for i := 0; i < rules; i++ {
		eVars[i] = make([]Var, nodes)
		for j := 0; j < nodes; j++ {
			eVars[i][j] = p.AddVar(0, 0, 1)
			camTerms[j] = append(camTerms[j], Term{eVars[i][j], 1})
		}
	}
	capTerms := make([][]Term, nodes)
	for i := 0; i < rules; i++ {
		for k := 0; k < paths; k++ {
			plen := 2 + rng.Intn(3)
			perm := rng.Perm(nodes)[:plen]
			cov := make([]Term, 0, plen)
			for pos, j := range perm {
				v := p.AddVar(rng.Float64()*float64(plen-pos), 0, 1)
				cov = append(cov, Term{v, 1})
				capTerms[j] = append(capTerms[j], Term{v, 1 + rng.Float64()})
				p.AddConstraint([]Term{{v, 1}, {eVars[i][j], -1}}, LE, 0)
			}
			p.AddConstraint(cov, LE, 1)
		}
	}
	for j := 0; j < nodes; j++ {
		p.AddConstraint(camTerms[j], LE, float64(rules)/5)
		if len(capTerms[j]) > 0 {
			p.AddConstraint(capTerms[j], LE, float64(paths)*0.8)
		}
	}
	return p
}

func BenchmarkSimplexDeploymentShaped(b *testing.B) {
	for _, size := range []struct{ nodes, units int }{
		{11, 100}, {22, 300}, {50, 600},
	} {
		b.Run(fmt.Sprintf("n%d_u%d", size.nodes, size.units), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := buildDeploymentLP(size.nodes, size.units, 7)
				sol, err := p.Solve()
				if err != nil || sol.Status != StatusOptimal {
					b.Fatalf("status %v err %v", sol.Status, err)
				}
				b.ReportMetric(float64(sol.Iters), "simplex-iters")
			}
		})
	}
}

// BenchmarkSimplexPackingShaped includes, at 50 nodes, 15 rules and 30
// paths per rule, an LP the size of the NIPS relaxation the replan_nips
// workload solves.
func BenchmarkSimplexPackingShaped(b *testing.B) {
	for _, size := range []struct{ nodes, rules, paths int }{
		{11, 10, 10}, {22, 15, 12}, {50, 15, 30},
	} {
		b.Run(fmt.Sprintf("n%d_r%d_p%d", size.nodes, size.rules, size.paths), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := buildPackingLP(size.nodes, size.rules, size.paths, 3)
				sol, err := p.Solve()
				if err != nil || sol.Status != StatusOptimal {
					b.Fatalf("status %v err %v", sol.Status, err)
				}
				b.ReportMetric(float64(sol.Iters), "simplex-iters")
			}
		})
	}
}

// presolveFodderLP is a deployment LP plus a hundred pinned singleton rows:
// a model presolve should shrink.
func presolveFodderLP() *Problem {
	p := buildDeploymentLP(20, 150, 9)
	for i := 0; i < 100; i++ {
		v := p.AddVar(0, 0, 1)
		p.AddConstraint([]Term{{v, 1}}, EQ, 1)
	}
	return p
}

func BenchmarkPresolveSpeedup(b *testing.B) {
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := presolveFodderLP().SolveOpts(Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("presolve", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := presolveFodderLP().SolveOpts(Options{Presolve: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
