package cluster

import (
	"reflect"
	"testing"

	"nwdeploy/internal/obs"
)

// smallOverloadConfig is a fast overload scenario: frequent moderate
// bursts a redundancy-2 deployment can absorb by shedding to its floor.
func smallOverloadConfig(seed int64, workers int) ScenarioConfig {
	return ScenarioConfig{
		Driver:   &BurstDriver{Seed: seed, BurstFactor: 1.8, BurstProb: 0.5, BaseJitter: 0.05},
		Sessions: 1500, Epochs: 5, Seed: seed,
		Governor: true,
		Probes:   500, Workers: workers,
	}
}

// The acceptance scenario: with the governor on, every node's post-shed
// load fits its tolerated budget every epoch — except nodes whose whole
// load is copy-0 slices, where the r=1 coverage floor outranks the budget
// and the governor correctly refuses to shed — and coverage never drops
// below the audited shed floor (full, since copy 0 is never shed). With
// the governor off, the same traffic pushes strictly more nodes over.
func TestOverloadGovernorBoundsLoad(t *testing.T) {
	rep, err := RunScenario(smallOverloadConfig(5, 0))
	if err != nil {
		t.Fatal(err)
	}
	shedSomewhere := false
	overOn := 0
	for _, ep := range rep.Epochs {
		over := 0
		for j, load := range ep.NodeLoads {
			if lim := ep.NodeBudgets[j] * 1.1; load > lim+1e-9 {
				over++
			}
		}
		if over != ep.OverBudget {
			t.Fatalf("epoch %d: OverBudget %d but %d loads exceed their limit", ep.Epoch, ep.OverBudget, over)
		}
		if ep.OverBudget > ep.Unsatisfied {
			t.Fatalf("epoch %d: %d nodes over budget but only %d floor-limited — governor left sheddable width on an over node",
				ep.Epoch, ep.OverBudget, ep.Unsatisfied)
		}
		overOn += ep.OverBudget
		if ep.ExpectedWorst < 1-1e-9 {
			t.Fatalf("epoch %d: shed floor %v — copy 0 was shed", ep.Epoch, ep.ExpectedWorst)
		}
		if ep.WorstCoverage < ep.ExpectedWorst-1e-9 {
			t.Fatalf("epoch %d: wire coverage %v below audited shed floor %v",
				ep.Epoch, ep.WorstCoverage, ep.ExpectedWorst)
		}
		if ep.SyncedAgents != rep.Nodes {
			t.Fatalf("epoch %d: only %d/%d agents synced on a clean network",
				ep.Epoch, ep.SyncedAgents, rep.Nodes)
		}
		if ep.ShedWidth > 0 {
			shedSomewhere = true
		}
	}
	if !shedSomewhere {
		t.Fatal("scenario never shed — bursts too weak to prove anything")
	}

	// Same scenario, governor off: the raw projection must exceed the
	// tolerated budget somewhere, and on strictly more node-epochs than
	// the governed run, or the governed run proved nothing.
	off := smallOverloadConfig(5, 0)
	off.Governor = false
	repOff, err := RunScenario(off)
	if err != nil {
		t.Fatal(err)
	}
	if repOff.MaxOverBudget == 0 {
		t.Fatal("governor-off run never exceeded budget — scenario is vacuous")
	}
	overOff := 0
	for _, ep := range repOff.Epochs {
		overOff += ep.OverBudget
	}
	if overOff <= overOn {
		t.Fatalf("governor did not reduce over-budget node-epochs: %d governed vs %d raw", overOn, overOff)
	}
}

// Same-seed overload runs are DeepEqual across worker counts, and a
// metrics registry must not perturb the report.
func TestOverloadDeterministicAcrossWorkers(t *testing.T) {
	r1, err := RunScenario(smallOverloadConfig(5, 1))
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallOverloadConfig(5, 4)
	cfg.Metrics = obs.New()
	r4, err := RunScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r4) {
		t.Fatalf("same-seed overload runs diverge across workers:\n%+v\n%+v", r1, r4)
	}

	other, err := RunScenario(smallOverloadConfig(6, 1))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(r1.Epochs, other.Epochs) {
		t.Fatal("different seeds produced identical epoch reports")
	}
}

// replanConfig drifts hard enough to trip the detector every few epochs.
func replanConfig(warm bool) ScenarioConfig {
	return ScenarioConfig{
		Driver:   &BurstDriver{Seed: 11, BurstFactor: 2.5, BurstProb: 0.6, BaseJitter: 0.1},
		Sessions: 1500, Epochs: 6, Seed: 11,
		Governor: true,
		Replan:   true, WarmReplan: warm,
		ReplanThreshold: 0.08, EWMAAlpha: 0.6,
		Probes: 400,
	}
}

// Warm-started replans must land the same plans in fewer total simplex
// iterations than cold replans of the identical drift sequence — the
// bounded-replan-deadline story depends on it — and every one must really
// start warm: a basis the solver rejects falls back to a cold solve that
// ReplanWarm still reports, so the solver's own counter is the check.
func TestOverloadWarmReplanFewerIters(t *testing.T) {
	cfg := replanConfig(true)
	cfg.Metrics = obs.New()
	warm, err := RunScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := cfg.Metrics.Snapshot().Counters["lp.warm_rejects"]; n != 0 {
		t.Fatalf("%d of %d warm replans fell back to a cold solve", n, warm.Replans)
	}
	cold, err := RunScenario(replanConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	if warm.Replans == 0 || cold.Replans == 0 {
		t.Fatalf("drift never triggered a replan (warm %d, cold %d)", warm.Replans, cold.Replans)
	}
	if warm.Replans != cold.Replans {
		t.Fatalf("warm and cold runs replanned different epochs: %d vs %d", warm.Replans, cold.Replans)
	}
	if warm.TotalReplanIters >= cold.TotalReplanIters {
		t.Fatalf("warm replans took %d iters, cold %d — warm start bought nothing",
			warm.TotalReplanIters, cold.TotalReplanIters)
	}
	for i, ep := range warm.Epochs {
		if ep.Replanned && !ep.ReplanWarm && i > 0 {
			t.Fatalf("epoch %d replanned cold in the warm run", ep.Epoch)
		}
	}
}

// A replan deadline too tight for any solve must fall back to the
// governors' shed state: no replan lands, every miss is counted, and the
// governed loads stay bounded anyway.
func TestOverloadReplanDeadlineFallsBack(t *testing.T) {
	cfg := replanConfig(false)
	cfg.ReplanMaxIters = 1
	rep, err := RunScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replans != 0 {
		t.Fatalf("%d replans landed under a 1-iteration deadline", rep.Replans)
	}
	if rep.MissedReplans == 0 {
		t.Fatal("no missed replans recorded — drift never triggered")
	}
	for _, ep := range rep.Epochs {
		if ep.OverBudget > ep.Unsatisfied {
			t.Fatalf("epoch %d: %d nodes over budget but only %d floor-limited despite governor fallback",
				ep.Epoch, ep.OverBudget, ep.Unsatisfied)
		}
	}
}
