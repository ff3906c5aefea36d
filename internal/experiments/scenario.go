package experiments

import (
	"fmt"
	"sort"
	"strings"

	"nwdeploy/internal/cluster"
)

// Scenario is the experiments-level alias for the cluster runtime's driver
// interface: a seeded, epoch-stepped mutator of traffic, faults, and
// topology occupancy. Every concrete scenario in this package is a pure
// function of (its configuration, the env), so runs replay bit-for-bit.
type Scenario = cluster.ScenarioDriver

// composed merges several scenarios into one driver.
type composed struct {
	parts []Scenario
}

// Compose runs several scenarios against the same cluster at once, merging
// their per-epoch stimuli: pair scales multiply, injected sessions
// concatenate in part order, crash/drain sets union, a controller outage
// or a republish from any part applies, and absolute pair volumes pass
// through (the runtime rejects them alongside pair scales). Each part sees the same
// env (published state), not each other's stimuli — they are independent
// pressures, which is what makes any mix of drivers runnable against the
// runtime unchanged.
func Compose(parts ...Scenario) Scenario {
	flat := make([]Scenario, 0, len(parts))
	for _, p := range parts {
		if c, ok := p.(*composed); ok {
			flat = append(flat, c.parts...)
			continue
		}
		flat = append(flat, p)
	}
	return &composed{parts: flat}
}

// Name implements Scenario.
func (c *composed) Name() string {
	names := make([]string, len(c.parts))
	for i, p := range c.parts {
		names[i] = p.Name()
	}
	return strings.Join(names, "+")
}

// Step implements Scenario.
func (c *composed) Step(env *cluster.ScenarioEnv) cluster.Stimulus {
	var out cluster.Stimulus
	downs := map[int]bool{}
	drains := map[int]bool{}
	for _, p := range c.parts {
		st := p.Step(env)
		if st.PairScale != nil {
			if out.PairScale == nil {
				out.PairScale = make([]float64, len(st.PairScale))
				for k := range out.PairScale {
					out.PairScale[k] = 1
				}
			}
			for k := range st.PairScale {
				out.PairScale[k] *= st.PairScale[k]
			}
		}
		out.Inject = append(out.Inject, st.Inject...)
		for _, j := range st.Faults.DownNodes {
			downs[j] = true
		}
		for _, j := range st.Drains {
			drains[j] = true
		}
		out.Faults.ControllerDown = out.Faults.ControllerDown || st.Faults.ControllerDown
		out.Republish = out.Republish || st.Republish
		if st.PairVolumes != nil {
			out.PairVolumes = st.PairVolumes
		}
	}
	out.Faults.DownNodes = sortedKeys(downs)
	out.Drains = sortedKeys(drains)
	return out
}

func sortedKeys(m map[int]bool) []int {
	if len(m) == 0 {
		return nil
	}
	out := make([]int, 0, len(m))
	for j := range m {
		out = append(out, j)
	}
	sort.Ints(out)
	return out
}

// NewScenario resolves a scenario spec — one of "diurnal", "flashcrowd",
// "synflood", "maintenance", "adversary", or a "+"-joined composition like
// "maintenance+flashcrowd" — into a driver with catalog-default knobs,
// derived deterministically from the given seed and horizon. It is the
// resolver behind cmd/cluster -scenario.
func NewScenario(spec string, seed int64, epochs int) (Scenario, error) {
	names := strings.Split(spec, "+")
	parts := make([]Scenario, 0, len(names))
	for _, name := range names {
		var s Scenario
		switch strings.TrimSpace(name) {
		case "diurnal":
			s = NewDiurnal(seed, epochs)
		case "flashcrowd":
			s = NewFlashCrowd(epochs)
		case "synflood":
			s = NewSYNFlood(seed, epochs)
		case "maintenance":
			s = NewMaintenance(epochs)
		case "adversary":
			s = NewAdaptiveAdversary(seed)
		default:
			return nil, fmt.Errorf("experiments: unknown scenario %q (want diurnal, flashcrowd, synflood, maintenance, adversary, or a + composition)", name)
		}
		parts = append(parts, s)
	}
	if len(parts) == 1 {
		return parts[0], nil
	}
	return Compose(parts...), nil
}
