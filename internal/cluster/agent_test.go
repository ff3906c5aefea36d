package cluster

import "testing"

// Direct agent-level staleness test: the grace window boundary is exact.
// An agent that has failed to confirm its manifest for exactly `grace`
// consecutive epochs still serves it; one more failed epoch and it goes
// dark. (TestControllerOutageStaleThenDark exercises this through the
// full epoch loop; this pins the boundary arithmetic itself.)
func TestAgentStaleGraceBoundary(t *testing.T) {
	const grace = 2
	c := newTestCluster(t, ScenarioConfig{Seed: 21, StaleGrace: grace})
	if got, want := c.Converge(), len(c.agents); got != want {
		t.Fatalf("converged %d/%d", got, want)
	}
	a := c.agents[0]
	if !a.Usable() || a.staleEpochs != 0 {
		t.Fatalf("freshly synced agent: usable=%v stale=%d", a.Usable(), a.staleEpochs)
	}

	// Controller unreachable: each failed epoch climbs the staleness
	// ladder, and the agent keeps serving right up to the grace boundary.
	c.gate.SetOpen(false)
	for e := 1; e <= grace; e++ {
		a.syncWithRetry()
		if a.staleEpochs != e {
			t.Fatalf("after %d failed epochs: stale=%d", e, a.staleEpochs)
		}
		if !a.Usable() {
			t.Fatalf("agent dark at stale=%d, inside grace window %d", e, grace)
		}
	}
	a.syncWithRetry()
	if a.staleEpochs != grace+1 {
		t.Fatalf("after %d failed epochs: stale=%d", grace+1, a.staleEpochs)
	}
	if a.Usable() {
		t.Fatalf("agent still usable at stale=%d, past grace window %d", a.staleEpochs, grace)
	}
	if a.Decider() == nil {
		t.Fatal("going dark must not discard the manifest — recovery re-confirms, not re-fetches")
	}

	// Recovery: one successful sync resets the ladder entirely.
	c.gate.SetOpen(true)
	a.syncWithRetry()
	if !a.Usable() || a.staleEpochs != 0 {
		t.Fatalf("after recovery: usable=%v stale=%d", a.Usable(), a.staleEpochs)
	}
}

// Direct agent-level crash test: restart rebuilds the control client, so
// the in-memory manifest is gone and the agent is unusable until it
// re-fetches — which must happen even though the controller's epoch never
// moved, because the fresh client starts from epoch zero.
func TestAgentRestartRefetchesSameEpoch(t *testing.T) {
	c := newTestCluster(t, ScenarioConfig{Seed: 23})
	if got, want := c.Converge(), len(c.agents); got != want {
		t.Fatalf("converged %d/%d", got, want)
	}
	epoch := c.ctrl.Epoch()
	a := c.agents[3]
	if a.Decider() == nil {
		t.Fatal("synced agent has no decider")
	}

	a.restart()
	if a.Decider() != nil {
		t.Fatal("restart kept the in-memory manifest")
	}
	if a.Usable() {
		t.Fatal("manifest-less agent claims to be usable")
	}
	if c.ctrl.Epoch() != epoch {
		t.Fatalf("controller epoch moved to %d during restart", c.ctrl.Epoch())
	}

	a.tally = epochTally{}
	a.syncWithRetry()
	if a.tally.attempts != 1 || !a.tally.synced {
		t.Fatalf("restart re-sync: attempts=%d synced=%v", a.tally.attempts, a.tally.synced)
	}
	if a.Decider() == nil || !a.Usable() {
		t.Fatal("agent did not re-fetch the unchanged epoch after restart")
	}
}
