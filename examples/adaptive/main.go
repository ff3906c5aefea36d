// Adaptive NIPS: the paper's Section 3.5 online-learning experiment
// (Figure 11). An adversary redraws the unwanted-traffic mix every epoch;
// the follow-the-perturbed-leader deployer adapts using only the history,
// and its normalized regret against the best static deployment in
// hindsight shrinks toward zero.
//
//	go run ./examples/adaptive [-epochs 300]
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"nwdeploy"
	"nwdeploy/internal/online"
)

func main() {
	log.SetFlags(0)
	epochs := flag.Int("epochs", 300, "adaptation horizon")
	flag.Parse()

	inst := nwdeploy.BuildNIPSInstance(nwdeploy.Internet2(), nwdeploy.UnitRules(6), nwdeploy.NIPSConfig{
		MaxPaths:             10,
		RuleCapacityFraction: 1, // Section 3.5 drops the TCAM constraints
		MatchSeed:            7,
	})
	series, err := online.Run(inst, online.RunConfig{
		Epochs:      *epochs,
		SampleEvery: *epochs / 15,
		Seed:        2010,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("FPL adaptation over %d epochs (negative regret = online beat the best static choice)\n\n", *epochs)
	fmt.Println("epoch   normalized regret")
	for _, pt := range series {
		bar := ""
		width := int(pt.Normalized * 200)
		switch {
		case width > 0:
			bar = strings.Repeat("+", min(width, 40))
		case width < 0:
			bar = strings.Repeat("-", min(-width, 40))
		}
		fmt.Printf("%5d   %+.4f  %s\n", pt.Epoch, pt.Normalized, bar)
	}
	final := series[len(series)-1].Normalized
	fmt.Printf("\nfinal normalized regret: %+.4f (paper: within 15%% of the hindsight optimum)\n", final)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
