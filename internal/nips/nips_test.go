package nips

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"nwdeploy/internal/topology"
)

// smallInstance builds a quick Internet2 instance suitable for unit tests.
func smallInstance(t *testing.T, rules, paths int, camFrac float64) *Instance {
	t.Helper()
	return NewInstance(topology.Internet2(), UnitRules(rules), Config{
		MaxPaths:             paths,
		RuleCapacityFraction: camFrac,
		MatchSeed:            7,
	})
}

func TestNewInstanceShape(t *testing.T) {
	inst := smallInstance(t, 10, 20, 0.2)
	if len(inst.Paths) != 20 {
		t.Fatalf("paths = %d, want 20", len(inst.Paths))
	}
	if len(inst.M) != 10 || len(inst.M[0]) != 20 {
		t.Fatalf("match-rate matrix is %dx%d", len(inst.M), len(inst.M[0]))
	}
	for k, path := range inst.Paths {
		if len(inst.Dist[k]) != len(path) {
			t.Fatalf("path %d: %d dist entries for %d nodes", k, len(inst.Dist[k]), len(path))
		}
		// Hop distances decrease toward the egress, ending at 1.
		for pos := range path {
			want := float64(len(path) - pos)
			if inst.Dist[k][pos] != want {
				t.Fatalf("path %d pos %d: dist %v, want %v", k, pos, inst.Dist[k][pos], want)
			}
		}
		if inst.Items[k] <= 0 || inst.Pkts[k] <= 0 {
			t.Fatalf("path %d has nonpositive volume", k)
		}
	}
	for j := range inst.CamCap {
		if inst.CamCap[j] != 0.2*10 {
			t.Fatalf("CamCap[%d] = %v, want 2", j, inst.CamCap[j])
		}
		if inst.MemCap[j] != DefaultMemCap || inst.CPUCap[j] != DefaultCPUCap {
			t.Fatalf("default caps wrong at node %d", j)
		}
	}
}

func TestRelaxationRespectsConstraints(t *testing.T) {
	inst := smallInstance(t, 8, 15, 0.15)
	rel, err := SolveRelaxation(inst)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Objective <= 0 {
		t.Fatalf("OptLP = %v, want > 0", rel.Objective)
	}
	// Coupling: d <= e everywhere; coverage <= 1; fractional TCAM within cap.
	n := inst.Topo.N()
	cam := make([]float64, n)
	for i := range rel.D {
		for j := 0; j < n; j++ {
			cam[j] += rel.E[i][j] * inst.Rules[i].CamReq
		}
		for k, path := range inst.Paths {
			cover := 0.0
			for pos, j := range path {
				d := rel.D[i][k][pos]
				if d > rel.E[i][j]+1e-6 {
					t.Fatalf("coupling violated: d=%v > e=%v (rule %d node %d)", d, rel.E[i][j], i, j)
				}
				cover += d
			}
			if cover > 1+1e-6 {
				t.Fatalf("coverage %v > 1 on rule %d path %d", cover, i, k)
			}
		}
	}
	for j := 0; j < n; j++ {
		if cam[j] > inst.CamCap[j]+1e-6 {
			t.Fatalf("fractional TCAM %v > cap %v at node %d", cam[j], inst.CamCap[j], j)
		}
	}
}

func TestRoundingFeasibleAndPositive(t *testing.T) {
	inst := smallInstance(t, 8, 15, 0.15)
	rel, err := SolveRelaxation(inst)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5; trial++ {
		dep, err := Round(inst, rel, rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := dep.Verify(inst); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if dep.Objective <= 0 {
			t.Fatalf("trial %d: objective %v, want > 0", trial, dep.Objective)
		}
		if dep.Objective > rel.Objective+1e-6 {
			t.Fatalf("trial %d: rounded objective %v exceeds OptLP %v", trial, dep.Objective, rel.Objective)
		}
	}
}

func TestVariantsImproveMonotonically(t *testing.T) {
	inst := smallInstance(t, 10, 15, 0.1)
	rel, err := SolveRelaxation(inst)
	if err != nil {
		t.Fatal(err)
	}
	get := func(v Variant) float64 {
		// Identical Seed across variants means identical rounding draws.
		dep, err := SolveFromRelaxation(inst, rel, SolveOptions{Variant: v, Iters: 3, Seed: 42, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := dep.Verify(inst); err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		return dep.Objective
	}
	basic := get(VariantBasic)
	roundLP := get(VariantRoundLP)
	greedy := get(VariantRoundGreedyLP)
	if roundLP < basic-1e-9 {
		t.Fatalf("rounding+lp (%v) worse than basic (%v)", roundLP, basic)
	}
	if greedy < roundLP-1e-9 {
		t.Fatalf("rounding+greedy+lp (%v) worse than rounding+lp (%v)", greedy, roundLP)
	}
	if greedy < 0.9*rel.Objective {
		t.Fatalf("greedy variant at %.3f of OptLP, want >= 0.9 (paper: >= 0.92)", greedy/rel.Objective)
	}
}

func TestSolveEndToEnd(t *testing.T) {
	inst := smallInstance(t, 6, 10, 0.2)
	dep, rel, err := Solve(inst, SolveOptions{Variant: VariantRoundGreedyLP, Iters: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if dep.Objective <= 0 || dep.Objective > rel.Objective+1e-6 {
		t.Fatalf("objective %v vs OptLP %v", dep.Objective, rel.Objective)
	}
}

func TestGreedyFillRespectsTCAM(t *testing.T) {
	inst := smallInstance(t, 10, 12, 0.1) // cap = 1 rule per node
	dep := &Deployment{
		E: make([][]bool, len(inst.Rules)),
		D: make([][][]float64, len(inst.Rules)),
	}
	for i := range dep.E {
		dep.E[i] = make([]bool, inst.Topo.N())
		dep.D[i] = make([][]float64, len(inst.Paths))
		for k := range inst.Paths {
			dep.D[i][k] = make([]float64, len(inst.Paths[k]))
		}
	}
	GreedyFill(inst, dep)
	for j := 0; j < inst.Topo.N(); j++ {
		used := 0.0
		for i := range dep.E {
			if dep.E[i][j] {
				used += inst.Rules[i].CamReq
			}
		}
		if used > inst.CamCap[j]+1e-9 {
			t.Fatalf("node %d TCAM %v > cap %v after greedy", j, used, inst.CamCap[j])
		}
	}
	// With positive caps the greedy must have enabled something.
	any := false
	for i := range dep.E {
		for j := range dep.E[i] {
			any = any || dep.E[i][j]
		}
	}
	if !any {
		t.Fatal("greedy enabled nothing despite free TCAM")
	}
}

func TestResolveLPOnEmptyEnablement(t *testing.T) {
	inst := smallInstance(t, 4, 6, 0.25)
	dep := &Deployment{
		E: make([][]bool, len(inst.Rules)),
		D: make([][][]float64, len(inst.Rules)),
	}
	for i := range dep.E {
		dep.E[i] = make([]bool, inst.Topo.N())
		dep.D[i] = make([][]float64, len(inst.Paths))
		for k := range inst.Paths {
			dep.D[i][k] = make([]float64, len(inst.Paths[k]))
		}
	}
	if err := ResolveLP(inst, dep); err != nil {
		t.Fatal(err)
	}
	if dep.Objective != 0 {
		t.Fatalf("objective %v with nothing enabled, want 0", dep.Objective)
	}
}

func TestDataPlaneAgreesWithObjective(t *testing.T) {
	inst := smallInstance(t, 6, 10, 0.2)
	dep, _, err := Solve(inst, SolveOptions{Variant: VariantRoundGreedyLP, Iters: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	sim := SimulateDrops(inst, dep, 20, rand.New(rand.NewSource(9)))
	if sim.Flows == 0 {
		t.Fatal("simulated no flows")
	}
	if sim.Measured <= 0 {
		t.Fatal("data plane dropped nothing")
	}
	diff := math.Abs(sim.Measured-sim.Predicted) / sim.Predicted
	if diff > 0.05 {
		t.Fatalf("data-plane reduction %v differs from objective %v by %.1f%%",
			sim.Measured, sim.Predicted, diff*100)
	}
	if sim.Measured > sim.TotalFootprint {
		t.Fatalf("measured reduction %v exceeds total footprint %v", sim.Measured, sim.TotalFootprint)
	}
}

func TestVerifyCatchesViolations(t *testing.T) {
	inst := smallInstance(t, 3, 5, 0.4)
	dep := &Deployment{
		E: make([][]bool, len(inst.Rules)),
		D: make([][][]float64, len(inst.Rules)),
	}
	for i := range dep.E {
		dep.E[i] = make([]bool, inst.Topo.N())
		dep.D[i] = make([][]float64, len(inst.Paths))
		for k := range inst.Paths {
			dep.D[i][k] = make([]float64, len(inst.Paths[k]))
		}
	}
	// Sampling without enablement violates Eq. (12).
	dep.D[0][0][0] = 0.5
	if err := dep.Verify(inst); err == nil {
		t.Fatal("Verify accepted sampling without enablement")
	}
	// Enable it; now oversample the path.
	j := inst.Paths[0][0]
	dep.E[0][j] = true
	dep.D[0][0][0] = 0.7
	j2 := inst.Paths[0][1]
	dep.E[0][j2] = true
	dep.D[0][0][1] = 0.7
	if err := dep.Verify(inst); err == nil {
		t.Fatal("Verify accepted coverage > 1")
	}
}

func TestVariantStrings(t *testing.T) {
	if VariantBasic.String() != "rounding" ||
		VariantRoundLP.String() != "rounding+lp" ||
		VariantRoundGreedyLP.String() != "rounding+greedy+lp" ||
		Variant(9).String() != "Variant(9)" {
		t.Fatal("variant names wrong")
	}
}

func TestUnitRules(t *testing.T) {
	rules := UnitRules(5)
	if len(rules) != 5 {
		t.Fatalf("got %d rules", len(rules))
	}
	for _, r := range rules {
		if r.CamReq != 1 || r.CPUPerPkt != 1 || r.MemPerItem != 1 {
			t.Fatalf("non-unit rule: %+v", r)
		}
	}
}

// TestQuickRoundingAlwaysFeasible: across random tiny instances, seeds,
// and capacity fractions, every variant's output satisfies all MILP
// constraints and never exceeds the LP bound.
func TestQuickRoundingAlwaysFeasible(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		frac := 0.1 + rng.Float64()*0.4
		rules := 3 + rng.Intn(5)
		inst := NewInstance(topology.Internet2(), UnitRules(rules), Config{
			MaxPaths:             4 + rng.Intn(8),
			RuleCapacityFraction: frac,
			MatchSeed:            seed,
		})
		rel, err := SolveRelaxation(inst)
		if err != nil {
			return false
		}
		for _, v := range []Variant{VariantBasic, VariantRoundLP, VariantRoundGreedyLP} {
			dep, err := SolveFromRelaxation(inst, rel, SolveOptions{Variant: v, Iters: 2, Seed: rng.Int63()})
			if err != nil {
				return false
			}
			if dep.Verify(inst) != nil {
				return false
			}
			if dep.Objective > rel.Objective+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Round implements the basic randomized-rounding algorithm of Figure 9:
// round each e*_ij to 1 with probability e*_ij/alpha, set d = epsilon*e,
// retry while any of Eqs. (9)–(11) is violated by more than beta*log N,
// repair Eq. (8) by zeroing rules, then rescale the d values to restore
// feasibility (the implementation scales by the actual violation factor,
// which is never larger than beta*log N — a practical tightening the
// paper's analysis permits).
func Round(inst *Instance, rel *Relaxation, rng *rand.Rand) (*Deployment, error) {
	dep, _, err := round(inst, rel, rng)
	return dep, err
}
