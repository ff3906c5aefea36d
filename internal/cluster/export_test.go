package cluster

import "nwdeploy/internal/chaos"

// Test-only entry points. BumpEpoch, Converge and RunEpoch drive the
// epoch loop one step at a time for the tests and BenchmarkClusterConverge;
// the commands run whole scenarios through RunScenario instead.

// BumpEpoch re-stamps the current plan as a new configuration generation —
// the operations center's periodic re-optimization round (the workload is
// unchanged here, so the plan content is too, but agents must re-fetch).
// The publish is recorded under the trace of the epoch about to run, so
// the fetches it triggers stitch to it.
func (c *Cluster) BumpEpoch() { c.publish(c.epoch+1, c.plan) }

// Converge runs one fault-free fetch phase (all agents up, gate forced
// open) and reports how many agents hold a current manifest afterwards —
// the cluster-formation step, and the benchmark's unit of work.
func (c *Cluster) Converge() int {
	c.gate.SetOpen(true)
	c.fetchPhase()
	synced := 0
	for _, a := range c.agents {
		if a.tally.synced {
			synced++
		}
	}
	return synced
}

// RunEpoch advances the cluster one epoch under a faults-only stimulus:
// applies the epoch's faults (crashing agents lose their manifests; a down
// controller drops every exchange), runs the fetch phase, drives each
// usable agent's engine over its traffic share, and audits achieved
// coverage against the plan's prediction for the same failure set.
func (c *Cluster) RunEpoch(f chaos.EpochFaults) ScenarioEpoch {
	eps, err := c.run(&scriptDriver{name: "epoch", step: func(*ScenarioEnv) Stimulus {
		return Stimulus{Faults: f}
	}}, 1)
	if err != nil {
		panic(err) // only a volume phase can fail, and faults give it nothing to reject
	}
	return eps[0]
}

// MaxRelErr returns the current maximum relative error across units.
func (d *DriftDetector) MaxRelErr() float64 { return d.maxErr }
