package cluster

import (
	"reflect"
	"testing"
	"time"

	"nwdeploy/internal/chaos"
	"nwdeploy/internal/hashing"
	"nwdeploy/internal/topology"
	"nwdeploy/internal/traffic"
)

// scriptDriver adapts a closure into a ScenarioDriver for tests.
type scriptDriver struct {
	name string
	step func(env *ScenarioEnv) Stimulus
}

func (d *scriptDriver) Name() string                   { return d.name }
func (d *scriptDriver) Step(env *ScenarioEnv) Stimulus { return d.step(env) }

// injectBurst builds n deterministic oversized telnet sessions src->dst
// whose tuples vary with (epoch, i) — enough entropy to spread across hash
// space, and big enough (login alerts above 4000 packets) that any node
// analyzing one raises an alert.
func injectBurst(epoch, n, src, dst int) []traffic.Session {
	out := make([]traffic.Session, 0, n)
	for i := 0; i < n; i++ {
		h := uint32(epoch*131071 + i*8191)
		out = append(out, traffic.Session{
			Tuple: hashing.FiveTuple{
				SrcIP:   uint32(10<<24|src<<16) | (h & 0xffff),
				DstIP:   uint32(10<<24 | dst<<16 | 7),
				SrcPort: uint16(1024 + i),
				DstPort: 23,
				Proto:   6,
			},
			Src: src, Dst: dst,
			ID:      1<<20 + epoch*4096 + i,
			Proto:   traffic.Telnet,
			Packets: 4500,
			Bytes:   4500 * 40,
		})
	}
	return out
}

// The full scenario runtime — pair modulation, injection, a crash, a drain
// with a controller outage, governor shed, warm replan, and the data plane
// — must produce bit-identical reports at any worker count.
func TestRunScenarioWorkersDeterminism(t *testing.T) {
	run := func(workers int) *ScenarioReport {
		rep, err := RunScenario(scriptedFaultConfig(t, workers))
		if err != nil {
			t.Fatalf("RunScenario(workers=%d): %v", workers, err)
		}
		return rep
	}
	r1 := run(1)
	r4 := run(4)
	if !reflect.DeepEqual(r1, r4) {
		t.Fatalf("scenario reports differ across worker counts:\n  w1: %+v\n  w4: %+v", r1, r4)
	}
	if r1.TotalInjected != 65 {
		t.Fatalf("TotalInjected = %d, want 65", r1.TotalInjected)
	}
	if got := len(r1.Epochs); got != 5 {
		t.Fatalf("epochs recorded = %d, want 5", got)
	}
	if ep := r1.Epochs[2]; len(ep.DownNodes) != 1 || ep.DownNodes[0] != 1 {
		t.Fatalf("epoch 3 DownNodes = %v, want [1]", ep.DownNodes)
	}
	if ep := r1.Epochs[3]; len(ep.Drained) != 1 || ep.Drained[0] != 2 || !ep.CtrlDown {
		t.Fatalf("epoch 4 drained/ctrl = %v/%v, want [2]/true", ep.Drained, ep.CtrlDown)
	}
	if r1.Epochs[1].Alerts == 0 {
		t.Fatal("data plane saw no alerts in the injection epoch")
	}
}

// Drain vs crash semantics: a drained node keeps its manifest across the
// maintenance window and rejoins usable even if the controller is
// unreachable, while a crashed node loses its manifest and stays dark
// until it can re-fetch.
func TestRunScenarioDrainKeepsManifestCrashLosesIt(t *testing.T) {
	topo := topology.Internet2()
	n := topo.N()
	driver := &scriptDriver{name: "maint-vs-crash", step: func(env *ScenarioEnv) Stimulus {
		switch env.Epoch {
		case 2:
			return Stimulus{
				Faults: chaos.EpochFaults{DownNodes: []int{3}},
				Drains: []int{2},
			}
		case 3:
			// Both nodes come back, but the controller is down: only state
			// retained in memory can serve this epoch.
			return Stimulus{Faults: chaos.EpochFaults{ControllerDown: true}}
		}
		return Stimulus{}
	}}
	rep, err := RunScenario(ScenarioConfig{
		Driver: driver,
		Topo:   topo, Sessions: 400, TrafficSeed: 5, Seed: 9,
		Epochs: 4, Redundancy: 2,
		Retry:      RetryPolicy{MaxAttempts: 1, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond, Multiplier: 1},
		StaleGrace: 2,
		Probes:     200,
	})
	if err != nil {
		t.Fatalf("RunScenario: %v", err)
	}
	ep1 := rep.Epochs[0]
	if ep1.SyncedAgents != n || ep1.DarkAgents != 0 {
		t.Fatalf("epoch 1: synced %d dark %d, want %d/0", ep1.SyncedAgents, ep1.DarkAgents, n)
	}
	ep2 := rep.Epochs[1]
	if !reflect.DeepEqual(ep2.DownNodes, []int{3}) || !reflect.DeepEqual(ep2.Drained, []int{2}) {
		t.Fatalf("epoch 2: down %v drained %v, want [3]/[2]", ep2.DownNodes, ep2.Drained)
	}
	// Epoch 3: nobody can fetch. The drained node still has last week's
	// manifest (stale but usable); the crashed node restarted empty and
	// goes dark; every other node is merely stale.
	ep3 := rep.Epochs[2]
	if ep3.DarkAgents != 1 {
		t.Fatalf("epoch 3: dark %d, want exactly the crashed node", ep3.DarkAgents)
	}
	if ep3.StaleAgents != n-1 {
		t.Fatalf("epoch 3: stale %d, want %d (all up nodes incl. the drained one)", ep3.StaleAgents, n-1)
	}
	if ep3.SyncedAgents != 0 {
		t.Fatalf("epoch 3: synced %d with the controller down", ep3.SyncedAgents)
	}
	// Epoch 4: the controller is back; everyone re-syncs, including the
	// crashed node.
	ep4 := rep.Epochs[3]
	if ep4.SyncedAgents != n || ep4.DarkAgents != 0 {
		t.Fatalf("epoch 4: synced %d dark %d, want %d/0", ep4.SyncedAgents, ep4.DarkAgents, n)
	}
}

// WeakRanges must reflect published state: full manifests at depth r
// everywhere before any shed, and segments sorted least-covered first.
func TestScenarioEnvWeakRanges(t *testing.T) {
	var got [][]WeakRange
	driver := &scriptDriver{name: "observer", step: func(env *ScenarioEnv) Stimulus {
		got = append(got, env.WeakRanges(0))
		return Stimulus{}
	}}
	rep, err := RunScenario(ScenarioConfig{
		Driver: driver,
		Topo:   topology.Internet2(), Sessions: 300, TrafficSeed: 3, Seed: 1,
		Epochs: 2, Redundancy: 2, Probes: 200,
	})
	if err != nil {
		t.Fatalf("RunScenario: %v", err)
	}
	if rep.WorstCoverage < 1 {
		t.Fatalf("quiet run worst coverage %v, want 1", rep.WorstCoverage)
	}
	for e, wrs := range got {
		if len(wrs) == 0 {
			t.Fatalf("epoch %d: no weak ranges reported", e+1)
		}
		prev := -1
		for _, wr := range wrs {
			if wr.Depth < 2 {
				t.Fatalf("epoch %d: segment %+v below redundancy 2 with no shed and no faults", e+1, wr)
			}
			if wr.Depth < prev {
				t.Fatalf("epoch %d: weak ranges not sorted by depth", e+1)
			}
			prev = wr.Depth
			if wr.Range.Hi <= wr.Range.Lo {
				t.Fatalf("epoch %d: empty segment %+v", e+1, wr)
			}
		}
	}
}
