package bro

import (
	"reflect"
	"testing"

	"nwdeploy/internal/control"
	"nwdeploy/internal/core"
	"nwdeploy/internal/hashing"
	"nwdeploy/internal/topology"
	"nwdeploy/internal/traffic"
)

// planDecider replays the planner's own Figure 3 decision through the
// ManifestDecider interface — the minimal stub proving the engine treats
// the two manifest sources identically.
type planDecider struct {
	plan   *core.Plan
	node   int
	hasher hashing.Hasher
}

func (d planDecider) ShouldAnalyze(class int, s traffic.Session) bool {
	return d.plan.ShouldAnalyze(d.node, class, s, d.hasher)
}

// solvedScenario builds a solved coordinated deployment over Internet2 for
// the decider tests.
func solvedScenario(t *testing.T) (*topology.Topology, []ModuleSpec, []traffic.Session, *core.Plan) {
	t.Helper()
	topo := topology.Internet2()
	modules := StandardModules()[1:]
	sessions := mixedTrace(t, 2500)
	inst, err := core.BuildInstance(topo, Classes(modules), sessions, core.UniformCaps(topo.N(), 1e9, 1e12))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.Solve(inst, 1)
	if err != nil {
		t.Fatal(err)
	}
	return topo, modules, sessions, plan
}

// nodeTraceFor filters the sessions node j observes in a coordinated
// deployment (origin, terminus, or transit), mirroring Emulation.nodeTrace.
func nodeTraceFor(topo *topology.Topology, sessions []traffic.Session, j int) []traffic.Session {
	paths := topo.PathMatrix()
	var out []traffic.Session
	for _, s := range sessions {
		for _, n := range paths[s.Src][s.Dst] {
			if n == j {
				out = append(out, s)
				break
			}
		}
	}
	return out
}

// An engine driven by a ManifestDecider must reproduce the plan-driven
// report exactly — including the early-drop and fine-grained paths, which
// gate on the presence of a manifest — since that equivalence is what lets
// a cluster node run from a fetched wire manifest alone.
func TestDeciderMatchesPlanReports(t *testing.T) {
	topo, modules, sessions, plan := solvedScenario(t)
	hasher := hashing.Hasher{Key: 7}
	for _, fineGrained := range []bool{false, true} {
		for j := 0; j < topo.N(); j++ {
			trace := nodeTraceFor(topo, sessions, j)
			base := Config{
				Mode: ModeCoordEvent, Modules: modules, Hasher: hasher,
				FineGrained: fineGrained,
			}
			viaPlan := base
			viaPlan.Plan, viaPlan.Node = plan, j
			viaDecider := base
			viaDecider.Node = j
			viaDecider.Decider = planDecider{plan: plan, node: j, hasher: hasher}
			got, want := Run(viaDecider, trace), Run(viaPlan, trace)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("fineGrained=%v node %d: decider report %+v != plan report %+v",
					fineGrained, j, got, want)
			}
		}
	}
}

// The same equivalence must hold when the decider is the real wire-manifest
// Decider from internal/control — the exact object a cluster agent fetches.
func TestWireDeciderMatchesPlanReports(t *testing.T) {
	topo, modules, sessions, plan := solvedScenario(t)
	const key = 7
	hasher := hashing.Hasher{Key: key}
	for j := 0; j < topo.N(); j++ {
		m, err := control.ManifestFromPlan(plan, j, 1, key)
		if err != nil {
			t.Fatal(err)
		}
		trace := nodeTraceFor(topo, sessions, j)
		viaPlan := Run(Config{
			Mode: ModeCoordEvent, Modules: modules, Hasher: hasher,
			Plan: plan, Node: j,
		}, trace)
		viaWire := Run(Config{
			Mode: ModeCoordEvent, Modules: modules, Hasher: hasher,
			Decider: control.NewDecider(m), Node: j,
		}, trace)
		if !reflect.DeepEqual(viaWire, viaPlan) {
			t.Fatalf("node %d: wire-decider report %+v != plan report %+v", j, viaWire, viaPlan)
		}
	}
}

// A decider on a standalone instance must still be treated as a manifest:
// sessions it rejects entirely are dropped before connection setup, unlike
// the nil-manifest default that analyzes everything.
func TestDeciderEnablesEarlyDrop(t *testing.T) {
	modules := []ModuleSpec{moduleByName(t, "signature")}
	sessions := mixedTrace(t, 500)
	none := rejectAll{}
	rep := Run(Config{Mode: ModeCoordEvent, Modules: modules, Hasher: hashing.Hasher{Key: 7},
		Decider: none}, sessions)
	if rep.Conns != 0 {
		t.Fatalf("reject-all decider still created %d connections", rep.Conns)
	}
	if rep.Observed != len(sessions) {
		t.Fatalf("observed %d sessions, want %d (capture cost is unavoidable)", rep.Observed, len(sessions))
	}
	open := Run(Config{Mode: ModeCoordEvent, Modules: modules, Hasher: hashing.Hasher{Key: 7}}, sessions)
	if open.Conns == 0 {
		t.Fatal("standalone nil-manifest run should create connection state")
	}
}

type rejectAll struct{}

func (rejectAll) ShouldAnalyze(int, traffic.Session) bool { return false }

// A manifest source whose class filters are wider than the module set's —
// stale after the modules were re-specified — must not widen any module's
// traffic: the engine analyzes a (module, session) pair only when the
// source says yes AND the module's own specification matches, whichever
// decision path answers (mask word, DecideAll row, per-class calls, Plan).
// Before the engine ANDed every verdict with its match mask, the mask fast
// path trusted the decider's filter, so a stale manifest created
// connection state — CPU and memory — for sessions no module analyzes.
func TestStaleManifestCannotWidenModuleTraffic(t *testing.T) {
	topo, modules, sessions, plan := solvedScenario(t)
	const key, node = 7, 10
	hasher := hashing.Hasher{Key: key}
	trace := nodeTraceFor(topo, sessions, node)

	// Widen every port- or transport-restricted class to all traffic, in the
	// wire manifest and in a copy of the plan's instance alike.
	m, err := control.ManifestFromPlan(plan, node, 1, key)
	if err != nil {
		t.Fatal(err)
	}
	stale := *m
	stale.Classes = append([]control.WireClass(nil), m.Classes...)
	staleInst := *plan.Inst
	staleInst.Classes = append([]core.Class(nil), plan.Inst.Classes...)
	widened := 0
	for i := range stale.Classes {
		if len(stale.Classes[i].Ports) > 0 || stale.Classes[i].Transport != 0 {
			widened++
		}
		stale.Classes[i].Ports, stale.Classes[i].Transport = nil, 0
		staleInst.Classes[i].Ports, staleInst.Classes[i].Transport = nil, 0
	}
	if widened == 0 {
		t.Fatal("no restricted class to widen; the test is vacuous")
	}
	stalePlan := *plan
	stalePlan.Inst = &staleInst
	staleDec := control.NewDecider(&stale)

	sources := []struct {
		name  string
		cfg   Config
		allow func(class int, s traffic.Session) bool
	}{
		{"Decider", Config{Decider: staleDec}, staleDec.ShouldAnalyze},
		{"per-class", Config{Decider: perClassOnly{staleDec}}, staleDec.ShouldAnalyze},
		{"Plan", Config{Plan: &stalePlan}, func(c int, s traffic.Session) bool {
			return stalePlan.ShouldAnalyze(node, c, s, hasher)
		}},
	}
	for _, src := range sources {
		// The oracle: per class, the source's verdict AND the module's spec.
		wantConns, wantRecords, wider := 0, 0, 0
		for _, s := range trace {
			any := false
			for c, mod := range modules {
				if !src.allow(c, s) {
					continue
				}
				if !mod.MatchesSession(s) {
					wider++
					continue
				}
				any = true
				wantRecords++
			}
			if any {
				wantConns++
			}
		}
		if wider == 0 {
			t.Fatalf("%s: the stale source never said yes outside a module's spec; vacuous", src.name)
		}
		cfg := src.cfg
		cfg.Mode, cfg.Modules, cfg.Node, cfg.Hasher = ModeCoordEvent, modules, node, hasher
		rep, log := RunWithLog(cfg, trace)
		if plain := Run(cfg, trace); !reflect.DeepEqual(plain, rep) {
			t.Errorf("%s: Run and RunWithLog disagree: %+v vs %+v", src.name, plain, rep)
		}
		if rep.Conns != wantConns {
			t.Errorf("%s: %d connections tracked, want %d (verdict AND MatchesSession)", src.name, rep.Conns, wantConns)
		}
		if len(log.Records) != wantRecords {
			t.Errorf("%s: %d analyses logged, want %d", src.name, len(log.Records), wantRecords)
		}
	}
}
