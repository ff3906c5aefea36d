package core_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"

	"nwdeploy/internal/bro"
	"nwdeploy/internal/core"
	"nwdeploy/internal/lp"
	"nwdeploy/internal/topology"
	"nwdeploy/internal/traffic"
)

// updateGolden rewrites testdata/plan_golden.json. Only an intended change
// to the placement LP or its pivot path may regenerate it.
var updateGolden = flag.Bool("update-golden", false, "rewrite internal/core/testdata/plan_golden.json")

const planGoldenPath = "testdata/plan_golden.json"

// goldenPlan is a Plan's solver output with every float as its bit pattern.
type goldenPlan struct {
	Objective   uint64        `json:"obj"`
	SolverIters int           `json:"iters"`
	Stats       lp.SolveStats `json:"stats"`
	Frac        [][]uint64    `json:"frac"`
}

func toGoldenPlan(p *core.Plan) goldenPlan {
	g := goldenPlan{Objective: math.Float64bits(p.Objective), SolverIters: p.SolverIters, Stats: p.Stats}
	for _, a := range p.Assignments {
		bits := make([]uint64, len(a.Frac))
		for i, f := range a.Frac {
			bits[i] = math.Float64bits(f)
		}
		g.Frac = append(g.Frac, bits)
	}
	return g
}

// goldenPlans solves the paper-scale replan instance — 50 nodes, the 200
// heaviest gravity pairs, the eight standard modules — cold (presolved), as
// a basis-capturing cold solve, and warm from that basis after a seeded
// ±10% volume jitter; and the Section 5 aggregation LP on the Internet2
// extension instance under a loose budget and a tight one (0.8 x the loose
// plan's byte-hops), which moves the vertex.
func goldenPlans(t *testing.T) map[string]goldenPlan {
	t.Helper()
	topo := topology.FiftyNode()
	m := traffic.Gravity(topo)
	kept := make(traffic.Matrix, len(m))
	for a := range kept {
		kept[a] = make([]float64, len(m[a]))
	}
	for _, p := range m.TopPairs(200) {
		kept[p[0]][p[1]] = m[p[0]][p[1]]
	}
	sessions := traffic.Generate(topo, kept, traffic.GenConfig{Sessions: 20_000, Seed: 5})
	inst, err := core.BuildInstance(topo, bro.Classes(bro.StandardModules()[1:]), sessions, core.UniformCaps(topo.N(), 1e9, 1e12))
	if err != nil {
		t.Fatal(err)
	}

	cold, err := core.SolveOpts(inst, core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	captured, err := core.SolveOpts(inst, core.SolveOptions{CaptureBasis: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	pkts := make([]float64, len(inst.Units))
	items := make([]float64, len(inst.Units))
	for ui, u := range inst.Units {
		f := 1 + 0.1*(2*rng.Float64()-1)
		pkts[ui], items[ui] = u.Pkts*f, u.Items*f
	}
	jittered, err := inst.WithVolumes(pkts, items)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := core.SolveOpts(jittered, core.SolveOptions{WarmBasis: captured.Basis})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.Phase1Iters != 0 {
		t.Fatalf("warm replan fell back cold (%d phase-1 pivots)", warm.Stats.Phase1Iters)
	}
	ext := core.ExtInstance(t)
	agg := core.AggregationConfig{Collector: 6, BytesPerItem: 64, Budget: 1e18}
	loose, err := core.SolveOpts(ext, core.SolveOptions{Aggregation: &agg})
	if err != nil {
		t.Fatal(err)
	}
	tightAgg := agg
	tightAgg.Budget = 0.8 * core.AggregationCost(ext, loose, agg)
	tight, err := core.SolveOpts(ext, core.SolveOptions{Aggregation: &tightAgg})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]goldenPlan{
		"cold":      toGoldenPlan(cold),
		"capture":   toGoldenPlan(captured),
		"warm":      toGoldenPlan(warm),
		"agg-loose": toGoldenPlan(loose),
		"agg-tight": toGoldenPlan(tight),
	}
}

// TestPlanGolden holds the 50-node placement plans to the ones captured
// before the simplex's pivots went sparse: objective, every assignment
// fraction and the solver's work counters, bit for bit.
func TestPlanGolden(t *testing.T) {
	got := goldenPlans(t)
	names := []string{"agg-loose", "agg-tight", "capture", "cold", "warm"}
	if *updateGolden {
		var buf bytes.Buffer
		buf.WriteString("{\n")
		for i, k := range names {
			line, err := json.Marshal(got[k])
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&buf, "%q: %s", k, line)
			if i < len(names)-1 {
				buf.WriteByte(',')
			}
			buf.WriteByte('\n')
		}
		buf.WriteString("}\n")
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(planGoldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(planGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update-golden on an intended LP change)", err)
	}
	var want map[string]goldenPlan
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for _, k := range names {
		w, ok := want[k]
		if !ok {
			t.Errorf("%s: not in golden file", k)
			continue
		}
		g := got[k]
		switch {
		case g.Objective != w.Objective:
			t.Errorf("%s: objective %v, want %v", k, math.Float64frombits(g.Objective), math.Float64frombits(w.Objective))
		case g.SolverIters != w.SolverIters || g.Stats != w.Stats:
			t.Errorf("%s: iters %d %+v, want %d %+v", k, g.SolverIters, g.Stats, w.SolverIters, w.Stats)
		case len(g.Frac) != len(w.Frac):
			t.Errorf("%s: %d assignments, want %d", k, len(g.Frac), len(w.Frac))
		default:
			for ui := range g.Frac {
				gj, _ := json.Marshal(g.Frac[ui])
				wj, _ := json.Marshal(w.Frac[ui])
				if !bytes.Equal(gj, wj) {
					t.Errorf("%s: unit %d fractions %s, want %s", k, ui, gj, wj)
					break
				}
			}
		}
	}
}
