package chaos

import "sort"

// Planned maintenance: rolling node drains. A drain differs from a crash
// in one operational respect — the process keeps its in-memory manifest,
// so a drained node rejoins instantly when its window ends, where a
// crashed node must re-fetch from the controller. The drain plan is a pure
// function of its config (no randomness at all: maintenance is scheduled,
// not drawn), which keeps composed scenarios bit-for-bit reproducible.

// DrainConfig parameterizes a rolling maintenance wave over the fleet.
type DrainConfig struct {
	// Epochs and Nodes size the plan.
	Epochs, Nodes int
	// Group is how many nodes drain together per window (0 selects 1).
	// Keep it at or below redundancy-1 to stay inside the paper's
	// Section 2.5 guarantee; above it probes degradation.
	Group int
	// Dwell is how many epochs each group stays drained (0 selects 1).
	Dwell int
	// Start is the first epoch of the wave (earlier epochs drain nothing).
	Start int
	// Gap is how many idle epochs separate consecutive windows (settle
	// time for re-synced manifests before the next group goes down).
	Gap int
}

func (c DrainConfig) withDefaults() DrainConfig {
	if c.Group <= 0 {
		c.Group = 1
	}
	if c.Dwell <= 0 {
		c.Dwell = 1
	}
	if c.Gap < 0 {
		c.Gap = 0
	}
	if c.Start < 0 {
		c.Start = 0
	}
	return c
}

// DrainPlan is an epoch-indexed maintenance schedule: Drains[e] lists the
// nodes drained during epoch e, ascending.
type DrainPlan struct {
	Drains [][]int
}

// RollingDrains builds the rolling-wave plan: starting at Start, node
// groups [0..Group), [Group..2*Group), ... each hold down for Dwell
// epochs, separated by Gap idle epochs, wrapping around the fleet until
// the plan's epochs run out. Every node is visited before any node is
// drained twice.
func RollingDrains(cfg DrainConfig) *DrainPlan {
	cfg = cfg.withDefaults()
	p := &DrainPlan{Drains: make([][]int, cfg.Epochs)}
	if cfg.Nodes <= 0 {
		return p
	}
	window := cfg.Dwell + cfg.Gap
	for e := cfg.Start; e < cfg.Epochs; e++ {
		rel := e - cfg.Start
		if rel%window >= cfg.Dwell {
			continue // gap epoch: everything is up
		}
		wave := rel / window
		first := (wave * cfg.Group) % cfg.Nodes
		for i := 0; i < cfg.Group && i < cfg.Nodes; i++ {
			p.Drains[e] = append(p.Drains[e], (first+i)%cfg.Nodes)
		}
		sort.Ints(p.Drains[e])
	}
	return p
}
