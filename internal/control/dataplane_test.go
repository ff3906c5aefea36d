package control

import (
	"math"
	"math/rand"
	"testing"

	"nwdeploy/internal/core"
	"nwdeploy/internal/hashing"
	"nwdeploy/internal/topology"
	"nwdeploy/internal/traffic"
)

// shedManifest builds a manifest for the widest-assignment node of a
// solved plan and sheds the middle half of its widest range, giving the
// width and decision tests something non-trivial in both sections.
func shedManifest(t *testing.T) *Manifest {
	t.Helper()
	plan, _ := solvedPlan(t, 11)
	node, unit := -1, -1
	var cut hashing.Range
	for j := range plan.Manifests {
		for ui, rs := range plan.Manifests[j].Ranges {
			for _, r := range rs {
				if r.Width() > 0.2 {
					node, unit = j, ui
					q := r.Width() / 4
					cut = hashing.Range{Lo: r.Lo + q, Hi: r.Hi - q}
				}
			}
		}
	}
	if node < 0 {
		t.Fatal("no assignment wide enough to shed")
	}
	m, err := ManifestFromPlan(plan, node, 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	m.Shed = ShedFromRanges(plan, map[int]hashing.RangeSet{unit: {cut}})
	return m
}

// Satellite regression for the order-dependent float summation bug:
// AssignedWidth and ShedWidth must be byte-equal however the manifest's
// assignment and shed slices are permuted. The old implementation summed
// in map-iteration order, so the last ULP could vary run to run.
func TestDeciderWidthsPermutationInvariant(t *testing.T) {
	m := shedManifest(t)
	base := NewDecider(m)
	wantAssigned := math.Float64bits(base.AssignedWidth())
	wantShed := math.Float64bits(base.ShedWidth())
	if wantAssigned == 0 {
		t.Fatal("degenerate manifest: assigned width 0")
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		p := &Manifest{
			Node: m.Node, Epoch: m.Epoch, HashKey: m.HashKey, Classes: m.Classes,
			Assignments: append([]WireAssignment(nil), m.Assignments...),
			Shed:        append([]WireAssignment(nil), m.Shed...),
		}
		rng.Shuffle(len(p.Assignments), func(i, j int) {
			p.Assignments[i], p.Assignments[j] = p.Assignments[j], p.Assignments[i]
		})
		rng.Shuffle(len(p.Shed), func(i, j int) {
			p.Shed[i], p.Shed[j] = p.Shed[j], p.Shed[i]
		})
		d := NewDecider(p)
		if got := math.Float64bits(d.AssignedWidth()); got != wantAssigned {
			t.Fatalf("trial %d: AssignedWidth bits %x != %x under permutation", trial, got, wantAssigned)
		}
		if got := math.Float64bits(d.ShedWidth()); got != wantShed {
			t.Fatalf("trial %d: ShedWidth bits %x != %x under permutation", trial, got, wantShed)
		}
	}
}

// DecideAll is a pure batching of ShouldAnalyze: the verdicts must agree
// class for class, on manifests with and without a shed section.
func TestDecideAllMatchesShouldAnalyze(t *testing.T) {
	plan, sessions := solvedPlan(t, 12)
	for node := range plan.Manifests {
		m, err := ManifestFromPlan(plan, node, 1, 7)
		if err != nil {
			t.Fatal(err)
		}
		d := NewDecider(m)
		out := make([]bool, len(m.Classes))
		for _, s := range sessions[:800] {
			d.DecideAll(s, out)
			for ci := range m.Classes {
				if want := d.ShouldAnalyze(ci, s); out[ci] != want {
					t.Fatalf("node %d class %d session %v: DecideAll %v, ShouldAnalyze %v",
						node, ci, s.Tuple, out[ci], want)
				}
			}
		}
	}
	// With a shed section, and with an oversized out slice (the tail must
	// be cleared, not left stale).
	m := shedManifest(t)
	d := NewDecider(m)
	_, sessions2 := solvedPlan(t, 13)
	wide := make([]bool, len(m.Classes)+3)
	for i := range wide {
		wide[i] = true
	}
	for _, s := range sessions2[:400] {
		d.DecideAll(s, wide)
		for ci := range m.Classes {
			if want := d.ShouldAnalyze(ci, s); wide[ci] != want {
				t.Fatalf("shed manifest class %d: DecideAll %v, ShouldAnalyze %v", ci, wide[ci], want)
			}
		}
		for i := len(m.Classes); i < len(wide); i++ {
			if wide[i] {
				t.Fatalf("DecideAll left stale verdict beyond class count at %d", i)
			}
		}
		for i := range wide {
			wide[i] = true
		}
	}
}

// DecideMask is the bit-packed form of DecideAll: bit ci of the mask must
// equal DecideAll's out[ci] on every session, across all nodes' manifests
// and with a shed section present.
func TestDecideMaskMatchesDecideAll(t *testing.T) {
	check := func(t *testing.T, m *Manifest, sessions []traffic.Session) {
		t.Helper()
		d := NewDecider(m)
		out := make([]bool, len(m.Classes))
		for i := range sessions {
			mask, ok := d.DecideMask(&sessions[i])
			if !ok {
				t.Fatal("mask path unavailable on a <=64-class manifest")
			}
			d.DecideAll(sessions[i], out)
			for ci := range m.Classes {
				if got := mask&(uint64(1)<<uint(ci)) != 0; got != out[ci] {
					t.Fatalf("node %d class %d session %v: DecideMask %v, DecideAll %v",
						m.Node, ci, sessions[i].Tuple, got, out[ci])
				}
			}
			if extra := mask >> uint(len(m.Classes)); extra != 0 {
				t.Fatalf("DecideMask set bits beyond the class count: %#x", mask)
			}
		}
	}
	plan, sessions := solvedPlan(t, 16)
	for node := range plan.Manifests {
		m, err := ManifestFromPlan(plan, node, 1, 7)
		if err != nil {
			t.Fatal(err)
		}
		check(t, m, sessions[:600])
	}
	_, sessions2 := solvedPlan(t, 17)
	check(t, shedManifest(t), sessions2[:600])
}

// The flattened index must agree with the retained pre-index baseline on
// every (class, session) decision — same semantics, different layout.
func TestDeciderMatchesBaseline(t *testing.T) {
	m := shedManifest(t)
	d, b := NewDecider(m), newBaselineDecider(m)
	_, sessions := solvedPlan(t, 14)
	for _, s := range sessions[:1000] {
		for ci := range m.Classes {
			if got, want := d.ShouldAnalyze(ci, s), b.ShouldAnalyze(ci, s); got != want {
				t.Fatalf("class %d session %v: index %v, baseline %v", ci, s.Tuple, got, want)
			}
		}
	}
}

// Satellite: NewDecider shed-subtraction edge cases, pinned against
// core.ProbeCoverage on a probe grid.
func TestDeciderShedSubtractionEdgeCases(t *testing.T) {
	classes := []WireClass{
		{Name: "a", Scope: int(core.PerIngress), Agg: int(core.BySource)},
		{Name: "b", Scope: int(core.PerIngress), Agg: int(core.BySource)},
		{Name: "c", Scope: int(core.PerIngress), Agg: int(core.BySource)},
	}
	m := &Manifest{
		Node: 0, Epoch: 1, HashKey: 5, Classes: classes,
		Assignments: []WireAssignment{
			// Unit 0: shed exactly equals the assignment — coverage vanishes.
			{Class: 0, Unit: [2]int{0, -1}, Ranges: []WireRange{{Lo: 0.2, Hi: 0.6}}},
			// Unit 1: shed ends exactly at an interior boundary point;
			// [0.5, 0.6) survives and Hi-exclusivity decides 0.5 itself.
			{Class: 1, Unit: [2]int{1, -1}, Ranges: []WireRange{{Lo: 0.2, Hi: 0.6}}},
			// Unit 2: untouched assignment; the shed entry below names a
			// unit with no assignment at all.
			{Class: 2, Unit: [2]int{2, -1}, Ranges: []WireRange{{Lo: 0.1, Hi: 0.3}}},
		},
		Shed: []WireAssignment{
			{Class: 0, Unit: [2]int{0, -1}, Ranges: []WireRange{{Lo: 0.2, Hi: 0.6}}},
			{Class: 1, Unit: [2]int{1, -1}, Ranges: []WireRange{{Lo: 0.2, Hi: 0.5}}},
			{Class: 2, Unit: [2]int{9, -1}, Ranges: []WireRange{{Lo: 0.0, Hi: 1.0}}},
		},
	}
	d := NewDecider(m)

	// Exact-equality shed: nothing left anywhere on the grid.
	for i := 0; i <= 1000; i++ {
		if x := float64(i) / 1000; d.CoversUnit(0, [2]int{0, -1}, x) {
			t.Fatalf("unit fully shed but x=%v still covered", x)
		}
	}

	// Boundary-point shed: 0.5 is outside the shed cut [0.2, 0.5) but
	// inside the surviving assignment [0.5, 0.6); 0.6 stays excluded by
	// the assignment's own Hi.
	key1 := [2]int{1, -1}
	if !d.CoversUnit(1, key1, 0.5) {
		t.Fatal("Hi-exclusive shed boundary 0.5 should stay covered")
	}
	if d.CoversUnit(1, key1, math.Nextafter(0.5, 0)) {
		t.Fatal("point just below 0.5 should be shed")
	}
	if d.CoversUnit(1, key1, 0.6) || d.CoversUnit(1, key1, math.Nextafter(0.6, 1)) {
		t.Fatal("assignment Hi must stay exclusive after shedding")
	}
	if !d.CoversUnit(1, key1, math.Nextafter(0.6, 0)) {
		t.Fatal("point just below the assignment Hi should stay covered")
	}

	// Shed for an unassigned unit: no crash, no effect on real
	// assignments, but counted in ShedWidth as before (the governor never
	// produces such an entry; the decider must still be total).
	if !d.CoversUnit(2, [2]int{2, -1}, 0.2) {
		t.Fatal("unrelated shed entry disturbed an assignment")
	}
	wantShed := (0.6 - 0.2) + (0.5 - 0.2) + 1.0
	if got := d.ShedWidth(); math.Abs(got-wantShed) > 1e-12 {
		t.Fatalf("ShedWidth %v, want %v", got, wantShed)
	}

	// The probe audit must see exactly the surviving widths: unit 0 -> 0,
	// unit 1 -> 0.1, unit 2 -> 0.2. Units map 1:1 onto classes here.
	keys := [][2]int{{0, -1}, {1, -1}, {2, -1}}
	const probes = 10000
	worst, avg := core.ProbeCoverage(3, probes, func(ui int, x float64) bool {
		return d.CoversUnit(ui, keys[ui], x)
	})
	if worst != 0 {
		t.Fatalf("worst coverage %v, want 0 (fully shed unit)", worst)
	}
	if want := (0.0 + 0.1 + 0.2) / 3; math.Abs(avg-want) > 2.0/probes {
		t.Fatalf("avg probe coverage %v, want %v", avg, want)
	}

	// ShouldAnalyze must agree with CoversUnit at the session's own hash
	// point: the two predicates are the data-plane and audit-side views of
	// the same index.
	hasher := hashing.Hasher{Key: m.HashKey}
	for i := 0; i < 500; i++ {
		s := traffic.Session{
			Src: i % 3, Dst: 9,
			Tuple: hashing.FiveTuple{SrcIP: uint32(1000 + i), DstIP: 42, SrcPort: uint16(i), DstPort: 80, Proto: 6},
		}
		for ci := range classes {
			want := d.CoversUnit(ci, [2]int{s.Src, -1}, hasher.Source(s.Tuple))
			if got := d.ShouldAnalyze(ci, s); got != want {
				t.Fatalf("class %d src %d: ShouldAnalyze %v, CoversUnit %v", ci, s.Src, got, want)
			}
		}
	}
}

// The decision path — ShouldAnalyze, DecideAll, CoversUnit — must not
// allocate: it runs per packet.
func TestDeciderDecisionPathAllocFree(t *testing.T) {
	m := shedManifest(t)
	d := NewDecider(m)
	_, sessions := solvedPlan(t, 15)
	sessions = sessions[:64]
	out := make([]bool, len(m.Classes))
	sink := 0
	if n := testing.AllocsPerRun(100, func() {
		for _, s := range sessions {
			for ci := range m.Classes {
				if d.ShouldAnalyze(ci, s) {
					sink++
				}
			}
			d.DecideAll(s, out)
			if m, _ := d.DecideMask(&s); m != 0 {
				sink++
			}
			if d.CoversUnit(0, [2]int{s.Src, -1}, 0.37) {
				sink++
			}
		}
	}); n != 0 {
		t.Fatalf("decision path allocates %v per run, want 0", n)
	}
	_ = sink
}

// BenchmarkDataplaneDecide is the decision-rate microbenchmark: the
// pre-index reference (decider_ref_test.go), the flattened index, and the
// batched form, in decisions (class verdicts) per benchmark op.
func BenchmarkDataplaneDecide(b *testing.B) {
	plan, sessions := benchPlan(b)
	m, err := ManifestFromPlan(plan, 4, 1, 7)
	if err != nil {
		b.Fatal(err)
	}
	L := len(m.Classes)
	sessions = sessions[:1024]
	b.Run("baseline-map", func(b *testing.B) {
		d := newBaselineDecider(m)
		b.ReportAllocs()
		hits := 0
		for i := 0; i < b.N; i++ {
			s := sessions[i&1023]
			for ci := 0; ci < L; ci++ {
				if d.ShouldAnalyze(ci, s) {
					hits++
				}
			}
		}
		_ = hits
	})
	b.Run("flat-index", func(b *testing.B) {
		d := NewDecider(m)
		b.ReportAllocs()
		hits := 0
		for i := 0; i < b.N; i++ {
			s := sessions[i&1023]
			for ci := 0; ci < L; ci++ {
				if d.ShouldAnalyze(ci, s) {
					hits++
				}
			}
		}
		_ = hits
	})
	b.Run("flat-index-batch", func(b *testing.B) {
		d := NewDecider(m)
		out := make([]bool, L)
		b.ReportAllocs()
		hits := 0
		for i := 0; i < b.N; i++ {
			d.DecideAll(sessions[i&1023], out)
			for _, v := range out {
				if v {
					hits++
				}
			}
		}
		_ = hits
	})
	b.Run("mask", func(b *testing.B) {
		d := NewDecider(m)
		b.ReportAllocs()
		var sink uint64
		for i := 0; i < b.N; i++ {
			em, _ := d.DecideMask(&sessions[i&1023])
			sink ^= em
		}
		_ = sink
	})
}

// benchPlan is solvedPlan without the testing.T (benchmarks share it).
func benchPlan(b *testing.B) (*core.Plan, []traffic.Session) {
	b.Helper()
	topo := topology.Internet2()
	tm := traffic.Gravity(topo)
	sessions := traffic.Generate(topo, tm, traffic.GenConfig{Sessions: 2500, Seed: 3})
	classes := []core.Class{
		{Name: "signature", Scope: core.PerPath, Agg: core.BySession, CPUPerPkt: 1, MemPerItem: 400},
		{Name: "http", Scope: core.PerPath, Agg: core.BySession, Ports: []uint16{80}, Transport: 6, CPUPerPkt: 2, MemPerItem: 600},
		{Name: "scan", Scope: core.PerIngress, Agg: core.BySource, CPUPerPkt: 0.3, MemPerItem: 120},
		{Name: "synflood", Scope: core.PerEgress, Agg: core.ByDestination, Transport: 6, CPUPerPkt: 0.2, MemPerItem: 60},
	}
	inst, err := core.BuildInstance(topo, classes, sessions, core.UniformCaps(topo.N(), 1e7, 1e9))
	if err != nil {
		b.Fatal(err)
	}
	plan, err := core.Solve(inst, 1)
	if err != nil {
		b.Fatal(err)
	}
	return plan, sessions
}
