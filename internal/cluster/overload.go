package cluster

import (
	"nwdeploy/internal/bro"
	"nwdeploy/internal/ledger"
	"nwdeploy/internal/obs"
	"nwdeploy/internal/parallel"
	"nwdeploy/internal/telemetry"
	"nwdeploy/internal/topology"
	"nwdeploy/internal/trace"
	"nwdeploy/internal/traffic"
)

// OverloadConfig parameterizes RunOverload: a live cluster driven through
// a bursty traffic series, with per-node load governors shedding under
// overrun and an EWMA drift detector triggering warm-started replans. The
// zero value selects a complete default scenario.
type OverloadConfig struct {
	// The deployment and workload, with ScenarioConfig's meanings and
	// defaults. Seed also drives the bursty volume series.
	Topo        *topology.Topology
	Modules     []bro.ModuleSpec
	Sessions    int
	TrafficSeed int64
	Seed        int64
	Epochs      int
	Redundancy  int
	// Burst shape: BurstFactor multiplies a bursting pair's volume
	// (0 selects 4), BurstProb is the per-(epoch, pair) burst probability
	// (0 selects 0.15), BaseJitter the everyday noise (0 selects 0.1).
	BurstFactor float64
	BurstProb   float64
	BaseJitter  float64
	// The governor and replan knobs, probe grid (a resolution, not a cost)
	// and worker pool size, again ScenarioConfig's.
	Governor        bool
	Replan          bool
	WarmReplan      bool
	ReplanThreshold float64
	EWMAAlpha       float64
	ReplanMaxIters  int
	Probes          int
	Workers         int
	// The write-only planes, as in Options: reports are DeepEqual with or
	// without any of them. The trace records the burst → overrun → shed →
	// replan chain; each epoch's ledger record carries the coverage verdict
	// and, governed, a per-node floor attestation.
	Metrics      *obs.Registry
	Trace        *trace.Tracer
	Watchdog     *trace.Watchdog
	Ledger       *ledger.Ledger
	Fleet        *telemetry.Fleet
	FleetHistory *telemetry.History
}

// OverloadEpoch is one epoch's outcome under overload: the ScenarioEpoch
// fields of the same names.
type OverloadEpoch struct {
	Epoch        int
	MaxRelErr    float64
	Drifted      bool
	Replanned    bool
	ReplanWarm   bool
	ReplanIters  int
	ReplanMissed bool
	NodeLoads    []float64
	NodeBudgets  []float64
	OverBudget   int
	Unsatisfied  int
	ShedWidth    float64
	// WorstCoverage/AvgCoverage audit the agents' wire manifests (with
	// shed subtracted); ShedFloorWorst/ShedFloorAvg are the governor-side
	// audit of the same degradation (equal when every agent synced; 1
	// with the governor off).
	WorstCoverage, AvgCoverage   float64
	ShedFloorWorst, ShedFloorAvg float64
	SyncedAgents                 int
	SLOViolations                []string
}

// OverloadReport is a full overload run.
type OverloadReport struct {
	Topology   string
	Nodes      int
	Sessions   int
	Redundancy int
	Seed       int64
	Governor   bool
	Replan     bool
	WarmReplan bool
	Objective  float64
	Epochs     []OverloadEpoch
	// Aggregates across epochs.
	WorstCoverage    float64 // min of epoch worsts
	AvgCoverage      float64 // mean of epoch averages
	MaxOverBudget    int     // max nodes over tolerated budget in any epoch
	Replans          int
	MissedReplans    int
	TotalReplanIters int
}

// RunOverload runs the overload-resilience experiment: the scenario
// runtime under a bursty-series driver, on a clean network with the data
// plane off. Each epoch the per-node governors project their load against
// the plan's budget and shed deterministically when over; the drift
// detector watches the smoothed volumes and, past the threshold, triggers a
// re-solve whose manifests are pushed through the normal epoch protocol. A
// re-solve that misses the ReplanMaxIters deadline is abandoned — the
// published shed state already bounds every node's load, which is exactly
// the fallback the governor exists for.
func RunOverload(cfg OverloadConfig) (*OverloadReport, error) {
	if cfg.BurstFactor == 0 {
		cfg.BurstFactor = 4
	}
	if cfg.BurstProb == 0 {
		cfg.BurstProb = 0.15
	}
	if cfg.BaseJitter == 0 {
		cfg.BaseJitter = 0.1
	}
	// Every other default is the scenario runtime's.
	scfg := ScenarioConfig{
		Topo: cfg.Topo, Modules: cfg.Modules,
		Sessions: cfg.Sessions, TrafficSeed: cfg.TrafficSeed,
		Seed: cfg.Seed, Epochs: cfg.Epochs, Redundancy: cfg.Redundancy,
		Governor: cfg.Governor,
		Replan:   cfg.Replan, WarmReplan: cfg.WarmReplan,
		ReplanThreshold: cfg.ReplanThreshold, EWMAAlpha: cfg.EWMAAlpha,
		ReplanMaxIters: cfg.ReplanMaxIters,
		Probes:         cfg.Probes, Workers: cfg.Workers,
		Metrics: cfg.Metrics, Trace: cfg.Trace, Watchdog: cfg.Watchdog, Ledger: cfg.Ledger,
		Fleet: cfg.Fleet, FleetHistory: cfg.FleetHistory,
	}.withDefaults()

	// The driver: absolute per-pair volumes from a seeded bursty series
	// around the modeled means, drawn on the first step.
	var series *traffic.EpochSeries
	srep, err := runScenario(scfg, func(env *ScenarioEnv) (Stimulus, []float64) {
		if series == nil {
			series = traffic.BurstySeries(
				traffic.PathVolumes{Pairs: env.Pairs, Items: env.PairMeans},
				traffic.BurstConfig{
					Epochs: env.Epochs, BaseJitter: cfg.BaseJitter,
					BurstProb: cfg.BurstProb, BurstFactor: cfg.BurstFactor,
					Seed: parallel.SplitSeed(cfg.Seed, 3),
				})
		}
		return Stimulus{}, series.Volumes[env.Epoch-1]
	})
	if err != nil {
		return nil, err
	}

	rep := &OverloadReport{
		Topology: srep.Topology, Nodes: srep.Nodes, Sessions: srep.Sessions,
		Redundancy: srep.Redundancy, Seed: srep.Seed,
		Governor: cfg.Governor, Replan: cfg.Replan, WarmReplan: cfg.WarmReplan,
		Objective:     srep.Objective,
		WorstCoverage: srep.WorstCoverage, AvgCoverage: srep.AvgCoverage,
		MaxOverBudget: srep.MaxOverBudget, Replans: srep.Replans,
		MissedReplans: srep.MissedReplans, TotalReplanIters: srep.TotalReplanIters,
	}
	for _, ep := range srep.Epochs {
		oe := OverloadEpoch{
			Epoch:     ep.Epoch,
			MaxRelErr: ep.MaxRelErr, Drifted: ep.Drifted,
			Replanned: ep.Replanned, ReplanWarm: ep.ReplanWarm,
			ReplanIters: ep.ReplanIters, ReplanMissed: ep.ReplanMissed,
			NodeLoads: ep.NodeLoads, NodeBudgets: ep.NodeBudgets,
			OverBudget: ep.OverBudget, Unsatisfied: ep.Unsatisfied,
			ShedWidth:     ep.ShedWidth,
			WorstCoverage: ep.WorstCoverage, AvgCoverage: ep.AvgCoverage,
			// With nothing down the published expectation is the
			// governors' shed floor; ungoverned, nothing sheds.
			ShedFloorWorst: 1, ShedFloorAvg: 1,
			SyncedAgents:  ep.SyncedAgents,
			SLOViolations: ep.SLOViolations,
		}
		if cfg.Governor {
			oe.ShedFloorWorst, oe.ShedFloorAvg = ep.ExpectedWorst, ep.ExpectedAvg
		}
		rep.Epochs = append(rep.Epochs, oe)
	}
	return rep, nil
}
