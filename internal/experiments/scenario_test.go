package experiments

import (
	"reflect"
	"strings"
	"testing"

	"nwdeploy/internal/chaos"
	"nwdeploy/internal/cluster"
	"nwdeploy/internal/traffic"
)

// fakeScenario returns a fixed stimulus every epoch.
type fakeScenario struct {
	name string
	st   cluster.Stimulus
}

func (f *fakeScenario) Name() string                               { return f.name }
func (f *fakeScenario) Step(*cluster.ScenarioEnv) cluster.Stimulus { return f.st }

func TestComposeMergesStimuli(t *testing.T) {
	a := &fakeScenario{name: "a", st: cluster.Stimulus{
		PairScale: []float64{2, 1, 0.5},
		Inject:    []traffic.Session{{ID: 1}},
		Faults:    chaos.EpochFaults{DownNodes: []int{3, 5}},
		Drains:    []int{2},
	}}
	b := &fakeScenario{name: "b", st: cluster.Stimulus{
		PairScale: []float64{3, 1, 4},
		Inject:    []traffic.Session{{ID: 2}, {ID: 3}},
		Faults:    chaos.EpochFaults{DownNodes: []int{5, 1}, ControllerDown: true},
		Drains:    []int{2, 7},
	}}
	env := &cluster.ScenarioEnv{Epoch: 1, Epochs: 4, Nodes: 8}
	c := Compose(a, b)
	if c.Name() != "a+b" {
		t.Fatalf("composed name %q", c.Name())
	}
	st := c.Step(env)
	if want := []float64{6, 1, 2}; !reflect.DeepEqual(st.PairScale, want) {
		t.Fatalf("pair scales %v, want elementwise product %v", st.PairScale, want)
	}
	if len(st.Inject) != 3 || st.Inject[0].ID != 1 || st.Inject[2].ID != 3 {
		t.Fatalf("injections %v, want concatenation in part order", st.Inject)
	}
	if want := []int{1, 3, 5}; !reflect.DeepEqual(st.Faults.DownNodes, want) {
		t.Fatalf("down nodes %v, want sorted union %v", st.Faults.DownNodes, want)
	}
	if want := []int{2, 7}; !reflect.DeepEqual(st.Drains, want) {
		t.Fatalf("drains %v, want sorted union %v", st.Drains, want)
	}
	if !st.Faults.ControllerDown {
		t.Fatal("controller outage from one part must take the composition down")
	}
	// One-sided pair scales: parts without a scale contribute 1.
	onlyA := Compose(a, &fakeScenario{name: "quiet"})
	if st := onlyA.Step(env); !reflect.DeepEqual(st.PairScale, a.st.PairScale) {
		t.Fatalf("one-sided compose scales %v, want %v", st.PairScale, a.st.PairScale)
	}
	// A republish from any part applies; absolute volumes pass through.
	vols := &fakeScenario{name: "vols", st: cluster.Stimulus{PairVolumes: []float64{5, 6, 7}, Republish: true}}
	if st := Compose(&fakeScenario{name: "quiet"}, vols).Step(env); !st.Republish || !reflect.DeepEqual(st.PairVolumes, vols.st.PairVolumes) {
		t.Fatalf("composed republish %v volumes %v, want true %v", st.Republish, st.PairVolumes, vols.st.PairVolumes)
	}
	// Composing compositions flattens.
	if got := Compose(c, a).Name(); got != "a+b+a" {
		t.Fatalf("nested compose name %q, want a+b+a", got)
	}
}

func TestNewScenarioResolves(t *testing.T) {
	resolve := func(spec string, r int) (cluster.ScenarioConfig, error) {
		cfg := cluster.ScenarioConfig{Seed: 7, Epochs: 8, Redundancy: r}
		err := NewScenario(&cfg, spec, cluster.ChaosDriver{}, cluster.BurstDriver{})
		return cfg, err
	}
	for _, spec := range []string{"diurnal", "flashcrowd", "synflood", "maintenance", "adversary", "chaos", "bursts",
		"maintenance+flashcrowd", "diurnal+chaos"} {
		cfg, err := resolve(spec, 2)
		if err != nil {
			t.Fatalf("NewScenario(%q): %v", spec, err)
		}
		if cfg.Driver.Name() != spec {
			t.Fatalf("NewScenario(%q).Name() = %q", spec, cfg.Driver.Name())
		}
	}
	// Chaos at r=2 caps concurrent crashes at r-1 and runs the data plane.
	if cfg, _ := resolve("chaos", 2); cfg.Driver.(*cluster.ChaosDriver).MaxDown != 1 || !cfg.DataPlane {
		t.Fatalf("chaos at r=2: driver %+v, data plane %v", cfg.Driver, cfg.DataPlane)
	}
	if _, err := resolve("nosuch", 2); err == nil {
		t.Fatal("unknown scenario spec must error")
	}
	// At r=1 chaos and synflood need different module sets; at r=2 only
	// chaos names one.
	if _, err := resolve("chaos+synflood", 1); err == nil || !strings.Contains(err.Error(), "Modules") {
		t.Fatalf("chaos+synflood at r=1: err %v, want a Modules conflict", err)
	}
	if _, err := resolve("chaos+synflood", 2); err != nil {
		t.Fatalf("chaos+synflood at r=2: %v", err)
	}
}

// Traffic-only drivers are pure functions of (config, env): same env, same
// stimulus, and the periodic/windowed structure shows through.
func TestTrafficScenarioStepsDeterministic(t *testing.T) {
	pairs := [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}}
	env := func(epoch int) *cluster.ScenarioEnv {
		return &cluster.ScenarioEnv{Epoch: epoch, Epochs: 8, Nodes: 4, Pairs: pairs}
	}
	for _, s := range []Scenario{NewDiurnal(9, 8), NewFlashCrowd(8), NewMaintenance(8), NewSYNFlood(9, 8)} {
		for e := 1; e <= 8; e++ {
			a, b := s.Step(env(e)), s.Step(env(e))
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s epoch %d: repeated Step differs", s.Name(), e)
			}
		}
	}
	// The flood only fires inside its window and carries enough distinct
	// connections to cross the SYNFlood threshold.
	fl := NewSYNFlood(9, 8)
	if st := fl.Step(env(1)); len(st.Inject) != 0 {
		t.Fatalf("flood injected %d sessions before its window", len(st.Inject))
	}
	st := fl.Step(env(fl.Start))
	if len(st.Inject) <= 500 {
		t.Fatalf("flood injected %d sessions, need >500 to cross the module threshold", len(st.Inject))
	}
	victims := map[uint32]bool{}
	for _, s := range st.Inject {
		victims[s.Tuple.DstIP] = true
	}
	if len(victims) != 1 {
		t.Fatalf("flood hit %d destination addresses, want 1 victim", len(victims))
	}
	// Rolling maintenance drains the whole fleet over the run, one node at
	// a time.
	mt := NewMaintenance(8)
	seen := map[int]bool{}
	for e := 1; e <= 8; e++ {
		st := mt.Step(env(e))
		if len(st.Drains) > 1 {
			t.Fatalf("maintenance drained %v in one epoch, group is 1", st.Drains)
		}
		for _, j := range st.Drains {
			seen[j] = true
		}
	}
	if len(seen) < 4 {
		t.Fatalf("rolling drains visited %d of 4 nodes", len(seen))
	}
}

// The adversary scenario needs the live env (it reads published
// manifests), so determinism is checked end to end: two identical runs
// replay bit-for-bit, and the crafted sessions actually flow.
func TestAdversaryScenarioDeterministic(t *testing.T) {
	run := func() *cluster.ScenarioReport {
		rep, err := cluster.RunScenario(cluster.ScenarioConfig{
			Driver:   NewAdaptiveAdversary(43),
			Sessions: 400, TrafficSeed: 17, Seed: 23,
			Epochs: 3, Redundancy: 2, Governor: true, Probes: 300,
		})
		if err != nil {
			t.Fatalf("RunScenario: %v", err)
		}
		return rep
	}
	r1, r2 := run(), run()
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("adversary runs with the same seed differ")
	}
	if r1.TotalInjected == 0 {
		t.Fatal("adversary crafted no sessions")
	}
	// The r=1 floor is the defense the adversary is probing: with every
	// copy-0 slice deployed and no faults, manifest steering finds no hole.
	if r1.TotalEvaded != 0 {
		t.Fatalf("%d of %d crafted sessions evaded an intact floor", r1.TotalEvaded, r1.TotalInjected)
	}
}

// The grid must be byte-identical at any worker count — the experiments
// half of the same-seed determinism contract — and meet its acceptance bar.
func TestScenariosGridWorkersDeterminism(t *testing.T) {
	r1, err := Scenarios(Config{Quick: true, Workers: 1})
	if err != nil {
		t.Fatalf("Scenarios(workers=1): %v", err)
	}
	r4, err := Scenarios(Config{Quick: true, Workers: 4})
	if err != nil {
		t.Fatalf("Scenarios(workers=4): %v", err)
	}
	if !reflect.DeepEqual(r1, r4) {
		t.Fatalf("grid rows differ across worker counts:\n  w1: %+v\n  w4: %+v", r1, r4)
	}
	if len(r1) != 13 {
		t.Fatalf("grid has %d rows, want 13", len(r1))
	}
	if err := AssertScenarios(r1); err != nil {
		t.Fatal(err)
	}
}
