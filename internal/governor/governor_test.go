package governor

import (
	"math"
	"reflect"
	"testing"

	"nwdeploy/internal/control"
	"nwdeploy/internal/core"
	"nwdeploy/internal/hashing"
	"nwdeploy/internal/obs"
	"nwdeploy/internal/topology"
	"nwdeploy/internal/traffic"
)

func testClasses() []core.Class {
	return []core.Class{
		{Name: "signature", Scope: core.PerPath, Agg: core.BySession, CPUPerPkt: 1, MemPerItem: 400},
		{Name: "http", Scope: core.PerPath, Agg: core.BySession, Ports: []uint16{80}, CPUPerPkt: 2, MemPerItem: 600},
	}
}

// testPlan solves a redundancy-2 plan over path-scoped classes, the domain
// where the governor has sheddable (copy >= 1) slices to work with.
func testPlan(t *testing.T, r int) (*core.Plan, []traffic.Session) {
	t.Helper()
	topo := topology.Internet2()
	tm := traffic.Gravity(topo)
	ss := traffic.Generate(topo, tm, traffic.GenConfig{Sessions: 3000, Seed: 11})
	inst, err := core.BuildInstance(topo, testClasses(), ss, core.UniformCaps(topo.N(), 1e7, 1e9))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.SolveOpts(inst, core.SolveOptions{Redundancy: r})
	if err != nil {
		t.Fatal(err)
	}
	return plan, ss
}

// uniformScale builds a per-unit scale vector with the same factor
// everywhere.
func uniformScale(plan *core.Plan, f float64) []float64 {
	sc := make([]float64, len(plan.Inst.Units))
	for i := range sc {
		sc[i] = f
	}
	return sc
}

// allGovernors builds one governor per node.
func allGovernors(t *testing.T, plan *core.Plan, cfg Config) []*Governor {
	t.Helper()
	n := plan.Inst.Topo.N()
	govs := make([]*Governor, n)
	for j := 0; j < n; j++ {
		g, err := New(plan, j, cfg)
		if err != nil {
			t.Fatal(err)
		}
		govs[j] = g
	}
	return govs
}

// over reports whether the epoch projected over budget before any
// shedding.
func over(r Report) bool {
	return r.ProjectedCPU > r.BudgetCPU || r.ProjectedMem > r.BudgetMem
}

// shedLoad projects g's current shed state onto offered loads: the load
// the shed walk's reported CPUAfter/MemAfter must equal.
func shedLoad(g *Governor, cpu, mem float64, sc func(int) float64) (float64, float64) {
	for _, s := range g.slices {
		rs, ok := g.shed[s.Unit]
		if !ok {
			continue
		}
		// Width of this slice that the shed state covers.
		kept := hashing.RangeSet{s.Range}.Subtract(rs)
		cutW := s.Range.Width() - kept.Width()
		if cutW <= 0 {
			continue
		}
		frac := cutW / s.Range.Width()
		cpu -= s.cpu * sc(s.Unit) * frac
		mem -= s.mem * sc(s.Unit) * frac
	}
	return cpu, mem
}

// coverage audits the network-wide residual coverage when every node in
// govs (indexed by node ID; nil entries mean no governor) drops its shed
// ranges: a unit's covered hash space is the union, over its path nodes, of
// each node's manifest ranges minus that node's shed. The worst coverage
// can never fall below full, because copy 0 is never shed — this audit is
// how the tests verify that invariant rather than assume it.
func coverage(plan *core.Plan, govs []*Governor, probes int) (worst, avg float64) {
	return core.ProbeCoverage(len(plan.Inst.Units), probes, func(ui int, dst hashing.RangeSet) hashing.RangeSet {
		for _, node := range plan.Inst.Units[ui].Nodes {
			var shed hashing.RangeSet
			if node < len(govs) && govs[node] != nil {
				shed = govs[node].shed[ui]
			}
			dst = plan.Manifests[node].Ranges[ui].AppendSubtract(dst, shed)
		}
		return dst
	})
}

func TestBudgetMatchesManifestLoad(t *testing.T) {
	plan, _ := testPlan(t, 2)
	inst := plan.Inst
	for j := 0; j < inst.Topo.N(); j++ {
		g, err := New(plan, j, Config{})
		if err != nil {
			t.Fatal(err)
		}
		// Independent computation from the published manifests: the budget
		// must equal the manifest-width load at plan volumes.
		var wantCPU, wantMem float64
		for ui, rs := range plan.Manifests[j].Ranges {
			u := inst.Units[ui]
			c := inst.Classes[u.Class]
			w := rs.Width()
			wantCPU += w * c.CPUPerPkt * u.Pkts / inst.Caps[j].CPU
			wantMem += w * c.MemPerItem * u.Items / inst.Caps[j].Mem
		}
		cpu, mem := g.budgetCPU, g.budgetMem
		if math.Abs(cpu-wantCPU) > 1e-9 || math.Abs(mem-wantMem) > 1e-9 {
			t.Fatalf("node %d budget (%v,%v), want (%v,%v)", j, cpu, mem, wantCPU, wantMem)
		}
	}
}

func TestNoShedWithinBudget(t *testing.T) {
	plan, _ := testPlan(t, 2)
	for _, g := range allGovernors(t, plan, Config{}) {
		rep, err := g.PlanEpoch(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Satisfied || rep.ShedWidth != 0 || len(rep.Shed) != 0 {
			t.Fatalf("node %d shed %v at plan volumes: %+v", g.node, rep.ShedWidth, rep)
		}
		if over(rep) {
			t.Fatalf("node %d projects over budget at scale 1", g.node)
		}
	}
}

func TestShedEngagesAndFitsTolerance(t *testing.T) {
	plan, _ := testPlan(t, 2)
	reg := obs.New()
	govs := allGovernors(t, plan, Config{Metrics: reg})
	scale := uniformScale(plan, 3)
	shedSomewhere := false
	for _, g := range govs {
		rep, err := g.PlanEpoch(scale)
		if err != nil {
			t.Fatal(err)
		}
		if !over(rep) {
			continue
		}
		limCPU := rep.BudgetCPU * 1.1
		limMem := rep.BudgetMem * 1.1
		if rep.Satisfied {
			if rep.CPUAfter > limCPU+1e-9 || rep.MemAfter > limMem+1e-9 {
				t.Fatalf("node %d satisfied but load after (%v,%v) over limits (%v,%v)",
					g.node, rep.CPUAfter, rep.MemAfter, limCPU, limMem)
			}
		}
		for _, sr := range rep.Shed {
			if sr.Copy < 1 {
				t.Fatalf("node %d shed copy-%d range %+v — coverage floor violated", g.node, sr.Copy, sr)
			}
			if sr.Range.Lo < 0 || sr.Range.Hi > 1 || sr.Range.IsEmpty() {
				t.Fatalf("node %d shed malformed range %+v", g.node, sr)
			}
		}
		if len(rep.Shed) > 0 {
			shedSomewhere = true
		}
	}
	if !shedSomewhere {
		t.Fatal("3x overload shed nothing on any node")
	}
	// The coverage floor holds network-wide: copy 0 is intact everywhere.
	worst, avg := coverage(plan, govs, 2000)
	if worst < 1-1e-9 {
		t.Fatalf("worst coverage %v (avg %v) after shedding — r=1 floor broken", worst, avg)
	}
	if reg.Counter("governor.sheds").Value() == 0 {
		t.Fatal("shed counter never incremented")
	}
}

func TestRestoreAfterBurst(t *testing.T) {
	plan, _ := testPlan(t, 2)
	for _, g := range allGovernors(t, plan, Config{}) {
		rep, err := g.PlanEpoch(uniformScale(plan, 3))
		if err != nil {
			t.Fatal(err)
		}
		hadShed := rep.ShedWidth > 0
		rep, err = g.PlanEpoch(nil)
		if err != nil {
			t.Fatal(err)
		}
		if rep.ShedWidth != 0 || g.shedWidth != 0 {
			t.Fatalf("node %d kept shed width %v after burst ended (had shed: %v)",
				g.node, rep.ShedWidth, hadShed)
		}
	}
}

// The shed contract, on the path the runtime publishes: a node's manifest
// with its governor's shed ranges in the Shed section (ShedFromRanges) must
// give a Decider that analyzes a session exactly when the plan assigns it
// to the node and the governor has not shed its hash point.
func TestShedsPredicateMatchesCovers(t *testing.T) {
	plan, ss := testPlan(t, 2)
	const key = 7
	h := hashing.Hasher{Key: key}
	govs := allGovernors(t, plan, Config{})
	scale := uniformScale(plan, 3)
	checked, shed := 0, 0
	for _, g := range govs {
		if _, err := g.PlanEpoch(scale); err != nil {
			t.Fatal(err)
		}
		if g.shedWidth == 0 {
			continue
		}
		m, err := control.ManifestFromPlan(plan, g.node, 1, key)
		if err != nil {
			t.Fatal(err)
		}
		m.Shed = control.ShedFromRanges(plan, g.ShedRanges())
		d := control.NewDecider(m)
		for ci := range plan.Inst.Classes {
			for _, s := range ss[:500] {
				ui, ok := plan.Inst.UnitFor(ci, s)
				if !ok {
					continue
				}
				x := plan.Inst.Classes[ci].HashOf(h, s.Tuple)
				planned := plan.ShouldAnalyze(g.node, ci, s, h)
				want := planned && !g.shed[ui].Contains(x)
				if got := d.ShouldAnalyze(ci, s); got != want {
					t.Fatalf("node %d class %d: decider=%v, plan=%v with shed ranges %v at x=%v",
						g.node, ci, got, planned, g.shed[ui], x)
				}
				if planned && !want {
					shed++
				}
				checked++
			}
		}
	}
	if checked == 0 || shed == 0 {
		t.Fatalf("predicate exercised on %d sessions, %d of them shed — no node shed at 3x", checked, shed)
	}
}

func TestDeterministicAcrossRebuilds(t *testing.T) {
	plan, _ := testPlan(t, 2)
	scales := [][]float64{uniformScale(plan, 1), uniformScale(plan, 3), uniformScale(plan, 1.5), nil}
	for j := 0; j < plan.Inst.Topo.N(); j++ {
		a, err := New(plan, j, Config{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := New(plan, j, Config{})
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range scales {
			ra, err := a.PlanEpoch(sc)
			if err != nil {
				t.Fatal(err)
			}
			rb, err := b.PlanEpoch(sc)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ra, rb) {
				t.Fatalf("node %d diverged on identical inputs:\n%+v\n%+v", j, ra, rb)
			}
			if !reflect.DeepEqual(a.ShedRanges(), b.ShedRanges()) {
				t.Fatalf("node %d shed state diverged", j)
			}
		}
	}
}

// Protected ranges are shed from no copy: the walk cuts around them and
// sheds more elsewhere, or the node runs hot. The shed list, the shed
// width, the projected load and the shed ranges agree on the result,
// and with nothing protected the walk is the unprotected one, bit for bit.
func TestProtectedRangesNeverShed(t *testing.T) {
	plan, _ := testPlan(t, 2)
	burst := uniformScale(plan, 3)
	sc := func(int) float64 { return 3 }
	tried := 0
	for j := 0; j < plan.Inst.Topo.N(); j++ {
		base, err := New(plan, j, Config{})
		if err != nil {
			t.Fatal(err)
		}
		prot, err := New(plan, j, Config{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := base.PlanEpoch(burst)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Shed) == 0 {
			continue
		}
		// Protect the middle half of every range the unprotected walk shed,
		// so each such cut has to split around it.
		protect := map[int]hashing.RangeSet{}
		for _, sr := range want.Shed {
			q := sr.Range.Width() / 4
			protect[sr.Unit] = append(protect[sr.Unit], hashing.Range{Lo: sr.Range.Lo + q, Hi: sr.Range.Hi - q})
		}
		prot.Protect(protect)
		got, err := prot.PlanEpoch(burst)
		if err != nil {
			t.Fatal(err)
		}
		width := 0.0
		for _, sr := range got.Shed {
			width += sr.Range.Width()
			if sr.Copy < 1 || sr.Range.IsEmpty() {
				t.Fatalf("node %d shed %+v", j, sr)
			}
			for _, p := range protect[sr.Unit] {
				if sr.Range.Lo < p.Hi && p.Lo < sr.Range.Hi {
					t.Fatalf("node %d shed %+v across protected %v", j, sr, p)
				}
			}
		}
		for ui, rs := range protect {
			for _, r := range rs {
				if x := (r.Lo + r.Hi) / 2; prot.shed[ui].Contains(x) {
					t.Fatalf("node %d sheds protected point %v of unit %d", j, x, ui)
				}
			}
		}
		if math.Abs(width-got.ShedWidth) > 1e-12 {
			t.Fatalf("node %d shed list sums to %v, ShedWidth %v", j, width, got.ShedWidth)
		}
		if cpu, _ := shedLoad(prot, got.ProjectedCPU, got.ProjectedMem, sc); math.Abs(cpu-got.CPUAfter) > 1e-12 {
			t.Fatalf("node %d reports CPU after %v, its shed state leaves %v", j, got.CPUAfter, cpu)
		}
		if got.Satisfied && got.CPUAfter > got.BudgetCPU*1.1+1e-9 {
			t.Fatalf("node %d satisfied at %v over limit %v", j, got.CPUAfter, got.BudgetCPU*1.1)
		}
		prot.Protect(nil)
		if again, err := prot.PlanEpoch(burst); err != nil || !reflect.DeepEqual(again, want) {
			t.Fatalf("node %d unprotected walk after Protect(nil) differs (err %v):\n%+v\n%+v", j, err, again, want)
		}
		tried++
	}
	if tried == 0 {
		t.Fatal("no node shed at 3x")
	}
}

// TestFloorInteractsWithFailureAudit pins the division of labor between the
// two robustness mechanisms (satellite: r-floor x CoverageUnderFailure).
// Shedding alone keeps coverage at 1 because copy 0 survives; a node
// failure alone keeps coverage at 1 because redundancy r=2 covers it; but
// shedding consumes exactly the slack that redundancy provisioned, so the
// combination may dip — and must never dip below what the combined audit
// reports, which is what the cluster runtime budgets against.
func TestFloorInteractsWithFailureAudit(t *testing.T) {
	plan, _ := testPlan(t, 2)
	govs := allGovernors(t, plan, Config{})

	// No shed: the failure audit alone governs, and r=2 keeps it at 1 for
	// any single failed node that shares units.
	worstFail, _ := core.CoverageUnderFailure(plan, []int{0})
	if worstFail < 1-1e-9 {
		t.Fatalf("r=2 plan lost coverage under single failure: %v", worstFail)
	}

	// Extreme overload: every governor sheds everything above the floor.
	for _, g := range govs {
		if _, err := g.PlanEpoch(uniformScale(plan, 100)); err != nil {
			t.Fatal(err)
		}
	}
	worst, _ := coverage(plan, govs, 2000)
	if worst < 1-1e-9 {
		t.Fatalf("floor broken without failures: worst %v", worst)
	}

	// Combined audit: shed + failed node. Copy 0 ranges hosted by the
	// failed node are gone and their copy >=1 backups were shed, so
	// coverage may drop — but it must equal the probe with the combined
	// range sets, never less than zero slack unaccounted.
	failed := 0
	worstBoth, avgBoth := core.ProbeCoverage(len(plan.Inst.Units), 2000, func(ui int, dst hashing.RangeSet) hashing.RangeSet {
		for _, node := range plan.Inst.Units[ui].Nodes {
			if node != failed {
				dst = plan.Manifests[node].Ranges[ui].AppendSubtract(dst, govs[node].shed[ui])
			}
		}
		return dst
	})
	if worstBoth > worst+1e-9 {
		t.Fatalf("failure improved coverage? %v > %v", worstBoth, worst)
	}
	t.Logf("coverage: shed-only worst=1, shed+fail worst=%v avg=%v", worstBoth, avgBoth)
}

func TestConfigValidation(t *testing.T) {
	plan, _ := testPlan(t, 2)
	if _, err := New(plan, -1, Config{}); err == nil {
		t.Fatal("negative node accepted")
	}
	if _, err := New(plan, plan.Inst.Topo.N(), Config{}); err == nil {
		t.Fatal("out-of-range node accepted")
	}
	g, err := New(plan, 0, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.PlanEpoch([]float64{1}); err == nil {
		t.Fatal("short scale vector accepted")
	}
}
