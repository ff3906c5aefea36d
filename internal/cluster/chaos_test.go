package cluster

import (
	"reflect"
	"testing"
	"time"

	"nwdeploy/internal/bro"
	"nwdeploy/internal/chaos"
	"nwdeploy/internal/control"
	"nwdeploy/internal/core"
	"nwdeploy/internal/obs"
	"nwdeploy/internal/topology"
)

// smallChaosConfig is a fast but fault-heavy scenario for determinism
// tests: real sockets, drops, black holes, crashes, and outages.
func smallChaosConfig(seed int64, workers int) ChaosConfig {
	return ChaosConfig{
		Sessions: 600, Epochs: 4, Seed: seed,
		Faults:       chaos.NetworkFaults{DropProb: 0.25, BlackholeProb: 0.1},
		NodeFailProb: 0.2, ControllerOutageProb: 0.25, MaxDown: 2,
		Retry:  RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond, JitterFrac: 0.3},
		Agent:  control.AgentOptions{DialTimeout: 100 * time.Millisecond, RPCTimeout: 100 * time.Millisecond},
		Probes: 500, Workers: workers,
	}
}

// The headline determinism guarantee: two chaos runs with the same seed
// produce DeepEqual reports, even though each run opens real TCP sockets,
// races goroutines, and spends different wall time; and the report is
// independent of worker-pool sizing. A metrics registry must not perturb
// it either.
func TestCoverageUnderChaosDeterministic(t *testing.T) {
	r1, err := CoverageUnderChaos(smallChaosConfig(21, 0))
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := smallChaosConfig(21, 1)
	cfg2.Metrics = obs.New()
	r2, err := CoverageUnderChaos(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("same-seed chaos runs diverge:\nrun1: %+v\nrun2: %+v", r1, r2)
	}

	r3, err := CoverageUnderChaos(smallChaosConfig(22, 0))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(r1.Epochs, r3.Epochs) {
		t.Fatal("different seeds produced identical epoch reports")
	}

	// The run must actually have exercised faults, or the determinism
	// claim is vacuous.
	sawFailure, sawFault := false, false
	for _, e := range r1.Epochs {
		if e.FetchFailures > 0 {
			sawFailure = true
		}
		if e.ControllerDown || len(e.DownNodes) > 0 {
			sawFault = true
		}
	}
	if !sawFailure || !sawFault {
		t.Fatalf("chaos run exercised no faults (failures=%v epochFaults=%v)", sawFailure, sawFault)
	}
}

// perPathModules returns modules whose classes are all PerPath-scoped —
// the only classes for which redundancy r=2 is feasible (PerIngress and
// PerEgress units have a single eligible node, so no second copy exists).
func perPathModules(t *testing.T) []bro.ModuleSpec {
	t.Helper()
	var out []bro.ModuleSpec
	for _, name := range []string{"signature", "http"} {
		for _, m := range bro.StandardModules() {
			if m.Name == name {
				out = append(out, m)
			}
		}
	}
	if len(out) != 2 {
		t.Fatalf("expected signature+http modules, got %d", len(out))
	}
	return out
}

// The Section 2.5 acceptance criterion, measured at runtime: a deployment
// provisioned with one redundant copy (r=2) holds 100% coverage through
// every single-node-failure epoch, degrades only when concurrent failures
// exceed the provisioned redundancy, and the achieved coverage matches
// the static core.CoverageUnderFailure audit exactly in every epoch.
func TestRedundancyHoldsUnderSingleFailures(t *testing.T) {
	topo := topology.Internet2()
	modules := perPathModules(t)
	c := newTestCluster(t, Options{
		Topo: topo, Modules: modules,
		Sessions:   testSessions(t, topo, 2500),
		Redundancy: 2,
		Seed:       31,
		Probes:     10000, // match CoverageUnderFailure's grid exactly
	})

	// A doomed pair: both eligible nodes of some two-node unit. Killing
	// them exceeds r-1=1 and must open a coverage hole no redundancy can
	// absorb.
	var doomed []int
	for _, u := range c.inst.Units {
		if len(u.Nodes) == 2 {
			doomed = append([]int(nil), u.Nodes...)
			break
		}
	}
	if doomed == nil {
		t.Fatal("no two-node unit in the instance; pick a different workload")
	}

	epochs := []chaos.EpochFaults{
		{},                    // healthy
		{DownNodes: []int{0}}, // single failure: guarantee holds
		{DownNodes: []int{5}}, // another single failure
		{DownNodes: doomed},   // beyond provisioned redundancy
		{},                    // recovery
	}
	for i, f := range epochs {
		rep := c.RunEpoch(f)
		wantWorst, wantAvg := core.CoverageUnderFailure(c.plan, f.DownNodes)
		if rep.WorstCoverage != wantWorst || rep.AvgCoverage != wantAvg {
			t.Fatalf("epoch %d: achieved (%v, %v) != static audit (%v, %v)",
				i+1, rep.WorstCoverage, rep.AvgCoverage, wantWorst, wantAvg)
		}
		if rep.WorstCoverage != rep.PredictedWorst || rep.AvgCoverage != rep.PredictedAvg {
			t.Fatalf("epoch %d: achieved (%v, %v) != predicted (%v, %v)",
				i+1, rep.WorstCoverage, rep.AvgCoverage, rep.PredictedWorst, rep.PredictedAvg)
		}
		if len(f.DownNodes) <= c.plan.Redundancy-1 {
			if rep.WorstCoverage != 1 {
				t.Fatalf("epoch %d: %d failures within redundancy %d, but worst coverage %v",
					i+1, len(f.DownNodes), c.plan.Redundancy, rep.WorstCoverage)
			}
		}
	}

	// The doomed-pair epoch must actually have degraded, or the test
	// proves nothing about the guarantee's boundary.
	degraded := c.RunEpoch(chaos.EpochFaults{DownNodes: doomed})
	if degraded.WorstCoverage >= 1 {
		t.Fatalf("killing both copies of a unit left worst coverage %v", degraded.WorstCoverage)
	}
}

// TestChaosDeterministicWithDeltas extends the headline same-seed
// determinism guarantee to the delta protocol: with agents syncing via
// v2 delta subscriptions — in both encodings — two same-seed chaos runs
// still produce DeepEqual reports.
func TestChaosDeterministicWithDeltas(t *testing.T) {
	for _, tc := range []struct {
		name string
		enc  control.Encoding
	}{
		{"json", control.EncodingJSON},
		{"bin", control.EncodingBinary},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mk := func(workers int) ChaosConfig {
				cfg := ChaosConfig{
					Sessions: 400, Epochs: 3, Seed: 31,
					Faults:       chaos.NetworkFaults{DropProb: 0.25, BlackholeProb: 0.1},
					NodeFailProb: 0.2, ControllerOutageProb: 0.25, MaxDown: 2,
					Retry:  RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond, JitterFrac: 0.3},
					Agent:  control.AgentOptions{DialTimeout: 100 * time.Millisecond, RPCTimeout: 100 * time.Millisecond},
					Probes: 300, Workers: workers,
					Deltas: true, Encoding: tc.enc,
				}
				return cfg
			}
			r1, err := CoverageUnderChaos(mk(0))
			if err != nil {
				t.Fatal(err)
			}
			r2, err := CoverageUnderChaos(mk(1))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(r1, r2) {
				t.Fatalf("same-seed delta chaos runs diverge:\nrun1: %+v\nrun2: %+v", r1, r2)
			}
			sawFault := false
			for _, e := range r1.Epochs {
				if e.ControllerDown || len(e.DownNodes) > 0 || e.FetchFailures > 0 {
					sawFault = true
				}
			}
			if !sawFault {
				t.Fatal("chaos run exercised no faults; determinism claim is vacuous")
			}
		})
	}
}
