package cluster

import (
	"nwdeploy/internal/chaos"
	"nwdeploy/internal/parallel"
	"nwdeploy/internal/traffic"
)

// ChaosDriver is the runtime-resilience experiment as a driver: a seeded
// epoch fault schedule — node crashes and controller outages — plus the
// operations centre's periodic re-optimization round. Run under
// RunScenario with a lossy Faults mix, it is the dynamic counterpart of
// the paper's Section 2.5 robustness argument: instead of evaluating the
// residual coverage of a manifest set on paper, it measures what a live
// (if emulated) deployment delivers while nodes crash, the controller
// disappears, and the control network drops and black-holes connections.
type ChaosDriver struct {
	// Seed draws the schedule (through SplitSeed(Seed, 2)).
	Seed int64
	// Schedule, when non-nil, replaces the drawn schedule; otherwise one is
	// drawn from NodeFailProb (per node and epoch), ControllerOutageProb
	// (per epoch) and MaxDown (a cap on concurrent crashes, 0 = uncapped).
	Schedule             *chaos.Schedule
	NodeFailProb         float64
	ControllerOutageProb float64
	MaxDown              int
	// ReoptEvery re-stamps the plan as a new configuration generation
	// every k epochs (0 or negative: never).
	ReoptEvery int

	sched *chaos.Schedule
}

// Name implements ScenarioDriver.
func (d *ChaosDriver) Name() string { return "chaos" }

// Step implements ScenarioDriver.
func (d *ChaosDriver) Step(env *ScenarioEnv) Stimulus {
	if d.sched == nil {
		d.sched = d.Schedule
		if d.sched == nil {
			d.sched = chaos.BuildSchedule(chaos.ScheduleConfig{
				Epochs: env.Epochs, Nodes: env.Nodes,
				Seed:         parallel.SplitSeed(d.Seed, 2),
				NodeFailProb: d.NodeFailProb, MaxDown: d.MaxDown,
				ControllerOutageProb: d.ControllerOutageProb,
			})
		}
	}
	e := env.Epoch - 1
	st := Stimulus{Republish: d.ReoptEvery > 0 && e > 0 && e%d.ReoptEvery == 0}
	if e < len(d.sched.Epochs) {
		st.Faults = d.sched.Epochs[e]
	}
	return st
}

// BurstDriver is the overload-resilience experiment as a driver: absolute
// per-pair volumes from a seeded bursty series around the modeled means.
// Under RunScenario the per-node governors project their load against the
// plan's budget and shed when over, and the drift detector triggers
// re-solves past its threshold; a re-solve that misses the ReplanMaxIters
// deadline is abandoned, the published shed state already bounding every
// node's load.
type BurstDriver struct {
	// Seed draws the series (through SplitSeed(Seed, 3)).
	Seed int64
	// BurstFactor multiplies a bursting pair's volume, BurstProb is the
	// per-(epoch, pair) burst probability, BaseJitter the everyday noise.
	BurstFactor float64
	BurstProb   float64
	BaseJitter  float64

	series *traffic.EpochSeries
}

// Name implements ScenarioDriver.
func (d *BurstDriver) Name() string { return "bursts" }

// Step implements ScenarioDriver.
func (d *BurstDriver) Step(env *ScenarioEnv) Stimulus {
	if d.series == nil {
		d.series = traffic.BurstySeries(
			traffic.PathVolumes{Pairs: env.Pairs, Items: env.PairMeans},
			traffic.BurstConfig{
				Epochs: env.Epochs, BaseJitter: d.BaseJitter,
				BurstProb: d.BurstProb, BurstFactor: d.BurstFactor,
				Seed: parallel.SplitSeed(d.Seed, 3),
			})
	}
	return Stimulus{PairVolumes: d.series.Volumes[env.Epoch-1]}
}
