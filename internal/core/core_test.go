package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"nwdeploy/internal/hashing"
	"nwdeploy/internal/topology"
	"nwdeploy/internal/traffic"
)

// testClasses returns a compact class set covering both scopes and several
// aggregations.
func testClasses() []Class {
	return []Class{
		{Name: "signature", Scope: PerPath, Agg: BySession, CPUPerPkt: 1.0, MemPerItem: 400},
		{Name: "http", Scope: PerPath, Agg: BySession, Ports: []uint16{80}, CPUPerPkt: 2.0, MemPerItem: 600},
		{Name: "scan", Scope: PerIngress, Agg: BySource, CPUPerPkt: 0.3, MemPerItem: 120},
		{Name: "synflood", Scope: PerPath, Agg: ByDestination, CPUPerPkt: 0.2, MemPerItem: 80},
	}
}

func testInstance(t *testing.T, sessions int) (*Instance, []traffic.Session) {
	t.Helper()
	topo := topology.Internet2()
	tm := traffic.Gravity(topo)
	ss := traffic.Generate(topo, tm, traffic.GenConfig{Sessions: sessions, Seed: 11})
	inst, err := BuildInstance(topo, testClasses(), ss, UniformCaps(topo.N(), 1e7, 1e9))
	if err != nil {
		t.Fatal(err)
	}
	return inst, ss
}

func TestBuildInstanceUnits(t *testing.T) {
	inst, ss := testInstance(t, 4000)
	if len(inst.Units) == 0 {
		t.Fatal("no coordination units built")
	}
	paths := inst.Topo.PathMatrix()
	var sawIngress, sawPath bool
	for _, u := range inst.Units {
		c := inst.Classes[u.Class]
		switch c.Scope {
		case PerIngress:
			sawIngress = true
			if len(u.Nodes) != 1 || u.Nodes[0] != u.Key[0] || u.Key[1] != -1 {
				t.Fatalf("ingress unit malformed: %+v", u)
			}
		case PerPath:
			sawPath = true
			if u.Key[0] >= u.Key[1] {
				t.Fatalf("path unit key not canonical: %+v", u.Key)
			}
			want := paths[u.Key[0]][u.Key[1]]
			if len(u.Nodes) != len(want) {
				t.Fatalf("unit nodes %v != path %v", u.Nodes, want)
			}
		}
		if u.Pkts <= 0 {
			t.Fatalf("unit has no packets: %+v", u)
		}
		if u.Items <= 0 {
			t.Fatalf("unit has no items: %+v", u)
		}
	}
	if !sawIngress || !sawPath {
		t.Fatal("expected both unit scopes")
	}

	// Total packets across the signature class's units must equal the total
	// workload packets (signature watches all traffic).
	var sigPkts, allPkts float64
	for _, u := range inst.Units {
		if inst.Classes[u.Class].Name == "signature" {
			sigPkts += u.Pkts
		}
	}
	for _, s := range ss {
		allPkts += float64(s.Packets)
	}
	if math.Abs(sigPkts-allPkts) > 0.5 {
		t.Fatalf("signature packets %v != workload packets %v", sigPkts, allPkts)
	}
}

func TestSolveProducesBalancedCoverage(t *testing.T) {
	inst, _ := testInstance(t, 4000)
	plan, err := Solve(inst, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Coverage: every unit's fractions sum to 1.
	for ui, a := range plan.Assignments {
		sum := 0.0
		for _, f := range a.Frac {
			if f < -1e-9 || f > 1+1e-9 {
				t.Fatalf("unit %d fraction out of range: %v", ui, f)
			}
			sum += f
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("unit %d coverage = %v, want 1", ui, sum)
		}
	}
	// Recomputed loads agree with the LP objective.
	if plan.MaxCPULoad > plan.Objective+1e-6 || plan.MaxMemLoad > plan.Objective+1e-6 {
		t.Fatalf("loads (%v, %v) exceed objective %v", plan.MaxCPULoad, plan.MaxMemLoad, plan.Objective)
	}
	if math.Max(plan.MaxCPULoad, plan.MaxMemLoad) < plan.Objective-1e-6 {
		t.Fatalf("objective %v not attained by loads (%v, %v)", plan.Objective, plan.MaxCPULoad, plan.MaxMemLoad)
	}
}

func TestCoordinatedBeatsEdgeOnMaxLoad(t *testing.T) {
	inst, _ := testInstance(t, 6000)
	plan, err := Solve(inst, 1)
	if err != nil {
		t.Fatal(err)
	}
	edge := EdgePlan(inst)
	if plan.MaxCPULoad >= edge.MaxCPULoad {
		t.Fatalf("coordinated max CPU %v >= edge %v", plan.MaxCPULoad, edge.MaxCPULoad)
	}
	if plan.MaxMemLoad >= edge.MaxMemLoad {
		t.Fatalf("coordinated max mem %v >= edge %v", plan.MaxMemLoad, edge.MaxMemLoad)
	}
}

func TestManifestsTileUnitInterval(t *testing.T) {
	inst, _ := testInstance(t, 3000)
	plan, err := Solve(inst, 1)
	if err != nil {
		t.Fatal(err)
	}
	// For every unit, the union of node ranges must cover [0,1) exactly
	// once: probe many points and count covering nodes.
	probes := []float64{0, 0.1, 0.25, 0.333, 0.5, 0.6180339, 0.75, 0.9, 0.99999}
	for ui, u := range inst.Units {
		for _, x := range probes {
			hits := 0
			for _, node := range u.Nodes {
				if plan.Manifests[node].Covers(ui, x) {
					hits++
				}
			}
			if hits != 1 {
				t.Fatalf("unit %d point %v covered %d times, want 1", ui, x, hits)
			}
		}
	}
}

func TestRedundantCoverage(t *testing.T) {
	inst, _ := testInstance(t, 3000)
	// r=2 requires every unit to have >= 2 eligible nodes; ingress units
	// have exactly 1, so build a path-only instance.
	classes := []Class{
		{Name: "signature", Scope: PerPath, Agg: BySession, CPUPerPkt: 1, MemPerItem: 400},
		{Name: "http", Scope: PerPath, Agg: BySession, Ports: []uint16{80}, CPUPerPkt: 2, MemPerItem: 600},
	}
	topo := inst.Topo
	tm := traffic.Gravity(topo)
	ss := traffic.Generate(topo, tm, traffic.GenConfig{Sessions: 3000, Seed: 21})
	pinst, err := BuildInstance(topo, classes, ss, UniformCaps(topo.N(), 1e7, 1e9))
	if err != nil {
		t.Fatal(err)
	}
	// Drop units too small for r=2 (adjacent node pairs give 2-node paths,
	// which are fine; only self pairs would fail and they cannot occur).
	plan, err := Solve(pinst, 2)
	if err != nil {
		t.Fatal(err)
	}
	probes := []float64{0.05, 0.3141, 0.5, 0.71828, 0.95}
	for ui, u := range pinst.Units {
		for _, x := range probes {
			hitNodes := map[int]int{}
			for _, node := range u.Nodes {
				for _, r := range plan.Manifests[node].Ranges[ui] {
					if r.Contains(x) {
						hitNodes[node]++
					}
				}
			}
			total := 0
			for node, c := range hitNodes {
				if c > 1 {
					t.Fatalf("unit %d point %v covered %d times by node %d (violates clause 2)", ui, x, c, node)
				}
				total += c
			}
			if total != 2 {
				t.Fatalf("unit %d point %v covered by %d distinct nodes, want 2", ui, x, total)
			}
		}
	}
	_ = plan
}

func TestRedundancyInfeasibleForIngressUnits(t *testing.T) {
	inst, _ := testInstance(t, 500)
	if _, err := Solve(inst, 2); err == nil {
		t.Fatal("expected error: ingress units have a single eligible node")
	}
	if _, err := Solve(inst, 0); err == nil {
		t.Fatal("expected error for r=0")
	}
}

func TestShouldAnalyzeExactlyOneNode(t *testing.T) {
	inst, ss := testInstance(t, 2500)
	plan, err := Solve(inst, 1)
	if err != nil {
		t.Fatal(err)
	}
	h := hashing.Hasher{Key: 42}
	for _, s := range ss[:800] {
		for ci, c := range inst.Classes {
			if !c.Matches(s) {
				continue
			}
			nodes := plan.AnalyzingNodes(ci, s, h)
			if len(nodes) != 1 {
				t.Fatalf("session %d class %s analyzed by %v, want exactly one node", s.ID, c.Name, nodes)
			}
			// The analyst must be an eligible node of the unit.
			ui, _ := inst.UnitFor(ci, s)
			found := false
			for _, n := range inst.Units[ui].Nodes {
				if n == nodes[0] {
					found = true
				}
			}
			if !found {
				t.Fatalf("session %d class %s analyzed at ineligible node %d", s.ID, c.Name, nodes[0])
			}
		}
	}
}

func TestShouldAnalyzeRespectsClassFilter(t *testing.T) {
	inst, ss := testInstance(t, 1000)
	plan, err := Solve(inst, 1)
	if err != nil {
		t.Fatal(err)
	}
	h := hashing.Hasher{Key: 1}
	httpIdx := -1
	for i, c := range inst.Classes {
		if c.Name == "http" {
			httpIdx = i
		}
	}
	for _, s := range ss {
		if s.Tuple.DstPort == 80 {
			continue
		}
		for node := 0; node < inst.Topo.N(); node++ {
			if plan.ShouldAnalyze(node, httpIdx, s, h) {
				t.Fatalf("non-HTTP session %d analyzed by HTTP class", s.ID)
			}
		}
	}
}

func TestEdgePlanAnalyzesAtBothEndpoints(t *testing.T) {
	inst, ss := testInstance(t, 800)
	edge := EdgePlan(inst)
	h := hashing.Hasher{Key: 9}
	sigIdx := 0
	for _, s := range ss[:200] {
		nodes := edge.AnalyzingNodes(sigIdx, s, h)
		if len(nodes) != 2 {
			t.Fatalf("edge plan analyzes session at %v, want both endpoints", nodes)
		}
	}
}

func TestUniformCaps(t *testing.T) {
	caps := UniformCaps(5, 10, 20)
	if len(caps) != 5 {
		t.Fatalf("len = %d", len(caps))
	}
	for _, c := range caps {
		if c.CPU != 10 || c.Mem != 20 {
			t.Fatalf("caps = %+v", c)
		}
	}
}

func TestBuildInstanceCapMismatch(t *testing.T) {
	topo := topology.Internet2()
	_, err := BuildInstance(topo, testClasses(), nil, UniformCaps(3, 1, 1))
	if err == nil {
		t.Fatal("expected capacity-count mismatch error")
	}
}

// TestBuildInstanceRejectsBadCapacity: a zero or NaN capacity used to be
// accepted and yield a plan whose MaxCPULoad is NaN.
func TestBuildInstanceRejectsBadCapacity(t *testing.T) {
	topo := topology.Internet2()
	ss := traffic.Generate(topo, traffic.Gravity(topo), traffic.GenConfig{Sessions: 500, Seed: 11})
	for _, bad := range []func(*NodeResources){
		func(c *NodeResources) { c.CPU = 0 },
		func(c *NodeResources) { c.CPU = -1 },
		func(c *NodeResources) { c.CPU = math.NaN() },
		func(c *NodeResources) { c.CPU = math.Inf(1) },
		func(c *NodeResources) { c.Mem = 0 },
		func(c *NodeResources) { c.Mem = math.NaN() },
	} {
		caps := UniformCaps(topo.N(), 1e7, 1e9)
		bad(&caps[3])
		_, err := BuildInstance(topo, testClasses(), ss, caps)
		if err == nil || !strings.Contains(err.Error(), "node 3 ") {
			t.Errorf("caps[3] = %+v: got %v, want an error naming node 3", caps[3], err)
		}
	}
}

func TestLoadsMatchManifestSimulation(t *testing.T) {
	// Empirically replaying the workload through the manifests must yield
	// per-node packet counts close to the LP's fractional assignment.
	inst, ss := testInstance(t, 8000)
	plan, err := Solve(inst, 1)
	if err != nil {
		t.Fatal(err)
	}
	h := hashing.Hasher{Key: 5}
	// Expected CPU cost per node from fractions.
	wantCPU := make([]float64, inst.Topo.N())
	for ui, a := range plan.Assignments {
		u := inst.Units[ui]
		c := inst.Classes[u.Class]
		for vi, node := range u.Nodes {
			wantCPU[node] += c.CPUPerPkt * u.Pkts * a.Frac[vi]
		}
	}
	gotCPU := make([]float64, inst.Topo.N())
	for _, s := range ss {
		for ci, c := range inst.Classes {
			if !c.Matches(s) {
				continue
			}
			for node := 0; node < inst.Topo.N(); node++ {
				if plan.ShouldAnalyze(node, ci, s, h) {
					gotCPU[node] += c.CPUPerPkt * float64(s.Packets)
				}
			}
		}
	}
	var wantTot, gotTot float64
	for j := range wantCPU {
		wantTot += wantCPU[j]
		gotTot += gotCPU[j]
	}
	if math.Abs(wantTot-gotTot) > 0.02*wantTot {
		t.Fatalf("total simulated CPU %v vs planned %v", gotTot, wantTot)
	}
	for j := range wantCPU {
		if math.Abs(wantCPU[j]-gotCPU[j]) > 0.02*wantTot {
			t.Fatalf("node %d simulated CPU %v vs planned %v (tot %v)", j, gotCPU[j], wantCPU[j], wantTot)
		}
	}
}

// TestQuickManifestTiling drives buildManifests directly with random
// fractional assignments (including degenerate near-zero and near-one
// fractions) and checks the tiling invariant: every probe point is covered
// exactly r times by distinct nodes.
func TestQuickManifestTiling(t *testing.T) {
	topo := topology.Internet2()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 1 + rng.Intn(2)
		nNodes := 3 + rng.Intn(4)
		classes := []Class{{Name: "c", Scope: PerPath, Agg: BySession, CPUPerPkt: 1, MemPerItem: 1}}
		nodes := rng.Perm(topo.N())[:nNodes]
		inst := &Instance{Topo: topo, Classes: classes, Caps: UniformCaps(topo.N(), 1, 1)}
		inst.Units = []CoordUnit{{Class: 0, Key: [2]int{0, 1}, Nodes: nodes, Pkts: 1, Items: 1}}

		// Random fractions in [0,1] summing to r, with occasional extremes.
		frac := make([]float64, nNodes)
		remaining := float64(r)
		for i := range frac {
			var v float64
			switch rng.Intn(4) {
			case 0:
				v = 0
			case 1:
				v = 1e-15
			default:
				v = rng.Float64()
			}
			if v > remaining {
				v = remaining
			}
			if v > 1 {
				v = 1
			}
			frac[i] = v
			remaining -= v
		}
		// Dump any remainder into slots with headroom.
		for i := range frac {
			if remaining <= 0 {
				break
			}
			add := math.Min(1-frac[i], remaining)
			frac[i] += add
			remaining -= add
		}
		if remaining > 1e-9 {
			return true // cannot represent this r with these slots; skip
		}

		p := &Plan{Inst: inst, Redundancy: r}
		p.Assignments = []Assignment{{Unit: 0, Frac: frac}}
		p.buildManifests()

		for _, x := range []float64{0, 0.1, 0.37, 0.5, 0.73, 0.999} {
			covered := 0
			for _, node := range nodes {
				hits := 0
				for _, rg := range p.Manifests[node].Ranges[0] {
					if rg.Contains(x) {
						hits++
					}
				}
				if hits > 1 {
					return false // same node twice: clause 2 violated
				}
				covered += hits
			}
			if covered != r {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestClamp01MapsNaNToZero(t *testing.T) {
	cases := map[float64]float64{
		-0.5: 0, 0: 0, 0.25: 0.25, 1: 1, 1.5: 1,
		math.Inf(-1): 0, math.Inf(1): 1,
	}
	for in, want := range cases {
		if got := clamp01(in); got != want {
			t.Errorf("clamp01(%v) = %v, want %v", in, got, want)
		}
	}
	// NaN compares false against both clamp bounds; it must still map to a
	// finite value, or buildManifests would tile NaN range boundaries.
	if got := clamp01(math.NaN()); got != 0 {
		t.Errorf("clamp01(NaN) = %v, want 0", got)
	}
}

func TestManifestBoundariesFinite(t *testing.T) {
	// Every hash-range boundary a solve hands to the data plane must be a
	// finite value in [0, 1]: a single NaN boundary silently un-covers the
	// unit for every probe.
	inst, _ := testInstance(t, 3000)
	plan, err := Solve(inst, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range plan.Manifests {
		for ui, rs := range m.Ranges {
			for _, rg := range rs {
				if math.IsNaN(rg.Lo) || math.IsNaN(rg.Hi) || math.IsInf(rg.Lo, 0) || math.IsInf(rg.Hi, 0) {
					t.Fatalf("node %d unit %d: non-finite range %v", m.Node, ui, rg)
				}
				if rg.Lo < 0 || rg.Hi > 1+1e-9 || rg.Lo > rg.Hi {
					t.Fatalf("node %d unit %d: malformed range %v", m.Node, ui, rg)
				}
			}
		}
	}
}

// Covers reports whether this node analyzes hash point x for the unit.
func (m *NodeManifest) Covers(unit int, x float64) bool {
	return m.Ranges[unit].Contains(x)
}

// AnalyzingNodes returns every node whose manifest covers the session for
// the class — with redundancy r this has exactly r members for covered
// traffic.
func (p *Plan) AnalyzingNodes(class int, s traffic.Session, h hashing.Hasher) []int {
	var out []int
	for node := range p.Manifests {
		if p.ShouldAnalyze(node, class, s, h) {
			out = append(out, node)
		}
	}
	return out
}
