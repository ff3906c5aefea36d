package lp_test

import (
	"testing"

	"nwdeploy/internal/core"
	"nwdeploy/internal/topology"
)

// BenchmarkSimplexPlacement cold-solves the placement LPs behind cmd/perf's
// lp.curve_ms.geant_8cls, lp.curve_ms.fifty_top120 and
// lp.curve_ms.fifty_top200 (formulation included, as there): 20,000 gravity
// sessions over the eight standard modules on GÉANT, and on the 50-node
// topology with its 120 and 200 heaviest pairs kept. It lives outside
// package lp because the instances come from core, which imports lp.
func BenchmarkSimplexPlacement(b *testing.B) {
	for _, c := range []struct {
		name     string
		topo     *topology.Topology
		topPairs int
	}{
		{"geant_8cls", topology.Geant(), 0},
		{"fifty_top120", topology.FiftyNode(), 120},
		{"fifty_top200", topology.FiftyNode(), 200},
	} {
		inst := placementInstance(b, c.topo, c.topPairs)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				plan, err := core.SolveOpts(inst, core.SolveOptions{Redundancy: 1})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(plan.Stats.Phase1Iters+plan.Stats.Phase2Iters), "simplex-iters")
			}
		})
	}
}
