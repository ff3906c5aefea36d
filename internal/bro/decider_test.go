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

// byClass gives a per-class rule the engine's ManifestDecider interface:
// bit c of the mask is rule(c, s) for each class c below n. It is how the
// tests' own deciders (the planner's decision, a coin, a refusal) drive
// the engine.
type byClass struct {
	n    int
	rule func(class int, s traffic.Session) bool
}

func (d byClass) DecideMask(s *traffic.Session) (uint64, bool) {
	var m uint64
	for c := 0; c < d.n; c++ {
		if d.rule(c, *s) {
			m |= 1 << uint(c)
		}
	}
	return m, true
}

// planDecider replays the planner's own Figure 3 decision for node, class
// by class: the oracle that engine runs from wire manifests are checked
// against.
func planDecider(plan *core.Plan, node int, h hashing.Hasher) byClass {
	return byClass{len(plan.Inst.Classes), func(class int, s traffic.Session) bool {
		return plan.ShouldAnalyze(node, class, s, h)
	}}
}

// solvedScenario builds a solved coordinated deployment over Internet2 for
// the decider tests.
func solvedScenario(t testing.TB) (*topology.Topology, []ModuleSpec, []traffic.Session, *core.Plan) {
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
// deployment (origin, terminus, or transit).
func nodeTraceFor(topo *topology.Topology, sessions []traffic.Session, j int) []traffic.Session {
	return NodeTrace(topo.PathMatrix(), sessions, j)
}

// An engine driven by the wire-manifest Decider from internal/control — the
// exact object a cluster agent fetches — must reproduce the report of the
// planner's own Figure 3 decision exactly, including the early-drop and
// fine-grained paths, which gate on the presence of a manifest: that
// equivalence is what lets a node run from a fetched wire manifest alone.
func TestDeciderMatchesPlanReports(t *testing.T) {
	topo, modules, sessions, plan := solvedScenario(t)
	const key = 7
	hasher := hashing.Hasher{Key: key}
	for _, fineGrained := range []bool{false, true} {
		for j := 0; j < topo.N(); j++ {
			m, err := control.ManifestFromPlan(plan, j, 1, key)
			if err != nil {
				t.Fatal(err)
			}
			trace := nodeTraceFor(topo, sessions, j)
			base := Config{
				Mode: ModeCoordEvent, Modules: modules, Hasher: hasher,
				FineGrained: fineGrained, Node: j,
			}
			viaPlan, viaWire := base, base
			viaPlan.Decider = planDecider(plan, j, hasher)
			viaWire.Decider = control.NewDecider(m)
			got, want := Run(viaWire, trace), Run(viaPlan, trace)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("fineGrained=%v node %d: wire-decider report %+v != plan report %+v",
					fineGrained, j, got, want)
			}
		}
	}
}

// Emulation drives every coordinated node from a decider built out of the
// node's wire manifest; its reports must equal engine runs driven by the
// planner's own decision on the same per-node traces.
func TestWireDeciderMatchesPlanReports(t *testing.T) {
	topo, modules, sessions, _ := solvedScenario(t)
	em, err := NewEmulation(topo, modules, sessions, core.UniformCaps(topo.N(), 1e9, 1e12))
	if err != nil {
		t.Fatal(err)
	}
	for _, fineGrained := range []bool{false, true} {
		res := em.RunFineGrained(DeployCoordinated, fineGrained)
		for j := 0; j < topo.N(); j++ {
			want := Run(Config{
				Mode: ModeCoordEvent, Modules: modules, Hasher: em.Hasher, FineGrained: fineGrained,
				Decider: planDecider(em.Plan, j, em.Hasher), Node: j,
			}, nodeTraceFor(topo, sessions, j))
			if !reflect.DeepEqual(res.Reports[j], want) {
				t.Fatalf("fineGrained=%v node %d: emulation report %+v != plan report %+v",
					fineGrained, j, res.Reports[j], want)
			}
		}
	}
}

// A decider on a standalone instance must still be treated as a manifest:
// sessions it rejects entirely are dropped before connection setup, unlike
// the nil-manifest default that analyzes everything.
func TestDeciderEnablesEarlyDrop(t *testing.T) {
	modules := []ModuleSpec{moduleByName(t, "signature")}
	sessions := mixedTrace(t, 500)
	none := byClass{len(modules), func(int, traffic.Session) bool { return false }}
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

// A manifest source whose class filters are wider than the module set's —
// stale after the modules were re-specified — must not widen any module's
// traffic: the engine analyzes a (module, session) pair only when the
// source says yes AND the module's own specification matches.
// Before the engine ANDed every verdict with its match mask, the mask fast
// path trusted the decider's filter, so a stale manifest created
// connection state — CPU and memory — for sessions no module analyzes.
func TestStaleManifestCannotWidenModuleTraffic(t *testing.T) {
	topo, modules, sessions, plan := solvedScenario(t)
	const key, node = 7, 10
	hasher := hashing.Hasher{Key: key}
	trace := nodeTraceFor(topo, sessions, node)

	// Widen every port- or transport-restricted class to all traffic in the
	// wire manifest.
	m, err := control.ManifestFromPlan(plan, node, 1, key)
	if err != nil {
		t.Fatal(err)
	}
	stale := *m
	stale.Classes = append([]control.WireClass(nil), m.Classes...)
	widened := 0
	for i := range stale.Classes {
		if len(stale.Classes[i].Ports) > 0 || stale.Classes[i].Transport != 0 {
			widened++
		}
		stale.Classes[i].Ports, stale.Classes[i].Transport = nil, 0
	}
	if widened == 0 {
		t.Fatal("no restricted class to widen; the test is vacuous")
	}
	staleDec := control.NewDecider(&stale)

	// The oracle: per class, the source's verdict AND the module's spec.
	wantConns, wantRecords, wider := 0, 0, 0
	for i := range trace {
		s := &trace[i]
		verdict, _ := staleDec.DecideMask(s)
		any := false
		for c, mod := range modules {
			if verdict>>uint(c)&1 == 0 {
				continue
			}
			if !mod.MatchesSession(*s) {
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
		t.Fatal("the stale source never said yes outside a module's spec; vacuous")
	}
	cfg := Config{Mode: ModeCoordEvent, Modules: modules, Node: node, Hasher: hasher, Decider: staleDec}
	rep, log := RunWithLog(cfg, trace)
	if plain := Run(cfg, trace); !reflect.DeepEqual(plain, rep) {
		t.Errorf("Run and RunWithLog disagree: %+v vs %+v", plain, rep)
	}
	if rep.Conns != wantConns {
		t.Errorf("%d connections tracked, want %d (verdict AND MatchesSession)", rep.Conns, wantConns)
	}
	if len(log.Records) != wantRecords {
		t.Errorf("%d analyses logged, want %d", len(log.Records), wantRecords)
	}
}
