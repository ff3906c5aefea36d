package experiments

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"time"

	"nwdeploy/internal/bro"
	"nwdeploy/internal/chaos"
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

// NewScenario points cfg at spec, the resolver behind cmd/cluster
// -scenario: a catalog name — diurnal, flashcrowd, synflood, maintenance,
// adversary, chaos, bursts — or a "+" composition such as "diurnal+chaos".
// It sets cfg.Driver, seeded from cfg.Seed over cfg.Epochs (chaos and
// bursts are copies of the knobs given), and what each part needs of the
// run at cfg.Redundancy; parts whose needs disagree are an error.
func NewScenario(cfg *cluster.ScenarioConfig, spec string, crashes cluster.ChaosDriver, bursts cluster.BurstDriver) error {
	seed, epochs, r := cfg.Seed, cfg.Epochs, cfg.Redundancy
	var parts []Scenario
	var needs []func(*cluster.ScenarioConfig)
	for _, name := range strings.Split(spec, "+") {
		switch name = strings.TrimSpace(name); name {
		case "diurnal":
			parts = append(parts, NewDiurnal(seed, epochs))
		case "flashcrowd":
			parts = append(parts, NewFlashCrowd(epochs))
		case "maintenance":
			parts = append(parts, NewMaintenance(epochs))
		case "adversary":
			parts = append(parts, NewAdaptiveAdversary(seed))
		case "synflood":
			parts = append(parts, NewSYNFlood(seed, epochs))
			if r == 1 {
				needs = append(needs, func(c *cluster.ScenarioConfig) { c.Modules = floodModules() })
			}
		case "chaos":
			// Crashes stay within r-1 unless the knobs cap them, putting the
			// coverage guarantee on trial; the engines run on what is left.
			d := crashes
			d.Seed = seed
			if r > 1 && d.MaxDown == 0 {
				d.MaxDown = r - 1
			}
			parts = append(parts, &d)
			needs = append(needs, func(c *cluster.ScenarioConfig) { c.DataPlane, c.Modules = true, chaosModules(r) })
		case "bursts":
			d := bursts
			d.Seed = seed
			parts = append(parts, &d)
		default:
			return fmt.Errorf("unknown scenario %q (want diurnal, flashcrowd, synflood, maintenance, adversary, chaos, bursts, or a + composition)", name)
		}
	}
	for _, need := range needs {
		need(cfg)
	}
	// Every need must hold of the result; a field two parts set to
	// different values fails the earlier part's.
	for _, need := range needs {
		want := *cfg
		need(&want)
		got, w := reflect.ValueOf(*cfg), reflect.ValueOf(want)
		for i := range w.NumField() {
			if !reflect.DeepEqual(got.Field(i).Interface(), w.Field(i).Interface()) {
				return fmt.Errorf("scenario %q: its parts need different %s at redundancy %d", spec, w.Type().Field(i).Name, r)
			}
		}
	}
	// Controller outages and black holes need short agent timeouts, or each
	// lost request waits out the 10 s RPC default.
	if strings.Contains(spec, "chaos") || cfg.Faults != (chaos.NetworkFaults{}) {
		cfg.Agent.DialTimeout, cfg.Agent.RPCTimeout = 200*time.Millisecond, 300*time.Millisecond
	}
	cfg.Driver = parts[0]
	if len(parts) > 1 {
		cfg.Driver = Compose(parts...)
	}
	return nil
}

// standardModules is the standard module set restricted to names, in the
// standard order.
func standardModules(names ...string) []bro.ModuleSpec {
	var mods []bro.ModuleSpec
	for _, m := range bro.StandardModules() {
		if slices.Contains(names, m.Name) {
			mods = append(mods, m)
		}
	}
	return mods
}

// chaosModules is a chaos run's module set: every analysis module at r=1,
// and at r>=2 the path-scoped ones, the only units that admit r copies.
func chaosModules(r int) []bro.ModuleSpec {
	if r > 1 {
		return standardModules("signature", "http")
	}
	return standardModules("scan", "irc", "login", "tftp", "http", "blaster", "signature", "synflood")
}

// floodModules is a SYN-flood run's module set at r=1: the path-scoped
// modules plus SYNFlood, whose egress units admit a single copy.
func floodModules() []bro.ModuleSpec {
	return standardModules("http", "signature", "synflood")
}
