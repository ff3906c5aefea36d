package cluster

import (
	"reflect"
	"testing"
	"time"

	"nwdeploy/internal/chaos"
	"nwdeploy/internal/telemetry"
	"nwdeploy/internal/topology"
)

// zeroWallMs strips the snapshots' only wall-clock field so runs can be
// compared DeepEqual.
func zeroWallMs(snaps []telemetry.FleetSnapshot) []telemetry.FleetSnapshot {
	for i := range snaps {
		snaps[i].WallMs = 0
	}
	return snaps
}

// Attaching the fleet plane must not perturb a chaos run: same-seed
// reports with and without it compare DeepEqual, and the fleet history
// itself (wall clock aside) is identical across worker counts — stats
// ride only exchanges the agents were already making.
func TestChaosFleetNonInterference(t *testing.T) {
	base, err := CoverageUnderChaos(smallChaosConfig(21, 0))
	if err != nil {
		t.Fatal(err)
	}
	n := topology.Internet2().N()

	var histories [][]telemetry.FleetSnapshot
	for _, workers := range []int{1, 4} {
		cfg := smallChaosConfig(21, workers)
		cfg.Fleet = telemetry.NewFleet(n, telemetry.FleetOptions{})
		cfg.FleetHistory = telemetry.NewHistory(16)
		rep, err := CoverageUnderChaos(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base, rep) {
			t.Fatalf("fleet-on report (workers=%d) diverges from fleet-off", workers)
		}
		snaps := cfg.FleetHistory.Snapshots()
		if len(snaps) != len(base.Epochs) {
			t.Fatalf("history has %d snapshots, want one per epoch (%d)", len(snaps), len(base.Epochs))
		}
		for _, s := range snaps {
			if s.WallMs == 0 {
				t.Fatalf("epoch %d snapshot missing wall-clock stamp", s.RunEpoch)
			}
			if got := s.Healthy + s.Stale + s.Shedding + s.Dark; got != n {
				t.Fatalf("epoch %d states sum to %d, want %d", s.RunEpoch, got, n)
			}
			if len(s.Nodes) != n {
				t.Fatalf("epoch %d has %d node views, want %d", s.RunEpoch, len(s.Nodes), n)
			}
		}
		histories = append(histories, zeroWallMs(snaps))
	}
	if !reflect.DeepEqual(histories[0], histories[1]) {
		t.Fatal("same-seed fleet histories differ across worker counts")
	}

	// This scenario crashes nodes and takes the controller down, so the
	// fleet view must register trouble somewhere or it is vacuous.
	trouble := 0
	for _, s := range histories[0] {
		trouble += s.Stale + s.Dark
	}
	if trouble == 0 {
		t.Fatal("fault-heavy run never produced a stale or dark node")
	}
}

// Overload runs carry the governor's shed state into the fleet view, and
// the plane stays write-only there too.
func TestOverloadFleetNonInterference(t *testing.T) {
	base, err := RunOverload(smallOverloadConfig(5, 0))
	if err != nil {
		t.Fatal(err)
	}
	n := topology.Internet2().N()

	cfg := smallOverloadConfig(5, 0)
	cfg.Fleet = telemetry.NewFleet(n, telemetry.FleetOptions{})
	cfg.FleetHistory = telemetry.NewHistory(16)
	rep, err := RunOverload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, rep) {
		t.Fatal("fleet-on overload report diverges from fleet-off")
	}
	snaps := cfg.FleetHistory.Snapshots()
	if len(snaps) != len(base.Epochs) {
		t.Fatalf("history has %d snapshots, want %d", len(snaps), len(base.Epochs))
	}
	// The scenario sheds (the governor test proves it); a node's shed state
	// is collected at epoch end and delivered on its next exchange, so some
	// later snapshot must classify a node as shedding.
	shedding := 0
	for _, s := range snaps {
		shedding += s.Shedding
	}
	if shedding == 0 {
		t.Fatal("governed overload run never showed a shedding node in the fleet view")
	}
}

// The live classification acceptance story: a crashed node goes dark in
// the epoch it crashes; a drained node's farewell keeps its silence
// classified stale; both recover to healthy after rejoining and syncing.
func TestScenarioFleetCrashDarkDrainStale(t *testing.T) {
	topo := topology.Internet2()
	n := topo.N()
	const crashed, drained = 3, 2
	driver := func() ScenarioDriver {
		return &scriptDriver{name: "fleet-maint", step: func(env *ScenarioEnv) Stimulus {
			switch env.Epoch {
			case 2:
				return Stimulus{Faults: chaos.EpochFaults{DownNodes: []int{crashed}}}
			case 3:
				return Stimulus{Drains: []int{drained}}
			}
			return Stimulus{}
		}}
	}
	run := func(fleet *telemetry.Fleet, hist *telemetry.History) *ScenarioReport {
		rep, err := RunScenario(ScenarioConfig{
			Driver: driver(),
			Topo:   topo, Sessions: 400, TrafficSeed: 5, Seed: 9,
			Epochs: 5, Redundancy: 2,
			Retry:      RetryPolicy{MaxAttempts: 1, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond, Multiplier: 1},
			StaleGrace: 2,
			Probes:     200,
			Fleet:      fleet, FleetHistory: hist,
		})
		if err != nil {
			t.Fatalf("RunScenario: %v", err)
		}
		return rep
	}

	base := run(nil, nil)
	fleet := telemetry.NewFleet(n, telemetry.FleetOptions{})
	hist := telemetry.NewHistory(16)
	rep := run(fleet, hist)
	if !reflect.DeepEqual(base, rep) {
		t.Fatal("fleet-on scenario report diverges from fleet-off")
	}

	snaps := hist.Snapshots()
	if len(snaps) != 5 {
		t.Fatalf("history has %d snapshots, want 5", len(snaps))
	}
	// Epoch 1: clean network, everyone reported (bootstrap stats), healthy.
	if s := snaps[0]; s.Healthy != n {
		t.Fatalf("epoch 1: %d healthy of %d: %+v", s.Healthy, n, s.Counts())
	}
	// Epoch 2: the crash happens mid-run with no farewell — dark within
	// the same epoch.
	if h := snaps[1].Nodes[crashed].Health; h != telemetry.Dark {
		t.Fatalf("epoch 2: crashed node classified %v, want dark", h)
	}
	// Epoch 3: the drain transition filed a Draining farewell, so the
	// node's silence is stale (planned), not dark, in the drain epoch.
	v := snaps[2].Nodes[drained]
	if v.Health != telemetry.Stale || !v.Draining {
		t.Fatalf("epoch 3: drained node = %+v, want stale+draining", v)
	}
	if snaps[2].Dark == 0 {
		// The crashed node rebuilt its control client empty; it syncs in
		// epoch 3 but carries no stats until the end-of-epoch collection,
		// so it stays dark one extra epoch.
		t.Fatalf("epoch 3: crashed node should still be dark: %+v", snaps[2].Counts())
	}
	// Epoch 5: both nodes are back, synced, and reporting again.
	last := snaps[4]
	for _, j := range []int{crashed, drained} {
		if h := last.Nodes[j].Health; h != telemetry.Healthy {
			t.Fatalf("epoch 5: node %d classified %v, want healthy", j, h)
		}
	}

	latest := fleet.Latest()
	if latest == nil || latest.RunEpoch != 5 {
		t.Fatalf("Latest = %+v, want the epoch-5 snapshot", latest)
	}
}
