// NIPS with TCAM budgets: reproduce one cell of the paper's Figure 10 on
// the Geant backbone — solve the LP relaxation, run the three rounding
// variants, and verify the best deployment in a flow-level data plane.
//
//	go run ./examples/nips-tcam [-rules 20] [-capfrac 0.15]
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"

	"nwdeploy"
	"nwdeploy/internal/nips"
	"nwdeploy/internal/topology"
)

func main() {
	log.SetFlags(0)
	rules := flag.Int("rules", 20, "number of NIPS rules")
	capFrac := flag.Float64("capfrac", 0.15, "TCAM slots per node as a fraction of the rule count")
	paths := flag.Int("paths", 15, "heaviest gravity paths to model")
	flag.Parse()

	topo := topology.Geant()
	inst := nwdeploy.BuildNIPSInstance(topo, nwdeploy.UnitRules(*rules), nwdeploy.NIPSConfig{
		MaxPaths:             *paths,
		RuleCapacityFraction: *capFrac,
		MatchSeed:            99,
	})
	fmt.Printf("topology=%s rules=%d paths=%d TCAM/node=%.1f slots\n",
		topo.Name, *rules, len(inst.Paths), inst.CamCap[0])

	rel, err := nips.SolveRelaxation(inst)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("LP relaxation upper bound OptLP = %.5g (%d simplex iterations)\n\n", rel.Objective, rel.Iters)

	var best *nips.Deployment
	for _, v := range []nips.Variant{nips.VariantBasic, nips.VariantRoundLP, nips.VariantRoundGreedyLP} {
		dep, err := nips.SolveFromRelaxation(inst, rel, nips.SolveOptions{Variant: v, Iters: 5, Seed: 1})
		if err != nil {
			log.Fatal(err)
		}
		if err := dep.Verify(inst); err != nil {
			log.Fatalf("%v produced an infeasible deployment: %v", v, err)
		}
		fmt.Printf("%-22s objective %.5g = %.3f of OptLP\n", v, dep.Objective, dep.Objective/rel.Objective)
		best = dep
	}

	// Exercise the best deployment in a flow-level data plane: hash-based
	// sampling drops unwanted flows at the assigned nodes; the measured
	// footprint reduction matches the optimizer's objective.
	sim := nips.SimulateDrops(inst, best, 50, rand.New(rand.NewSource(2)))
	fmt.Printf("\ndata-plane check over %d simulated unwanted flows:\n", sim.Flows)
	fmt.Printf("  predicted footprint reduction  %.5g\n", sim.Predicted)
	fmt.Printf("  measured footprint reduction   %.5g (%.1f%% of total unwanted footprint)\n",
		sim.Measured, 100*sim.Measured/sim.TotalFootprint)
}
