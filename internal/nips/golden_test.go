package nips_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"testing"

	"nwdeploy/internal/nips"
	"nwdeploy/internal/online"
	"nwdeploy/internal/topology"
	"nwdeploy/internal/traffic"
)

// updateGolden rewrites testdata/lp_golden.json. Only an intended change to
// a NIPS formulation or the solver's pivot path may regenerate it.
var updateGolden = flag.Bool("update-golden", false, "rewrite internal/nips/testdata/lp_golden.json")

const lpGoldenPath = "testdata/lp_golden.json"

// goldenLP is one NIPS-side LP outcome: the objective as its bit pattern,
// the relaxation's simplex iterations, and SHA-256 digests of the
// enablement (e values' bit patterns for the relaxation) and of every d
// value's bit pattern in (rule, path, position) order.
type goldenLP struct {
	Objective uint64 `json:"obj"`
	Iters     int    `json:"iters,omitempty"`
	E         string `json:"e,omitempty"`
	D         string `json:"d"`
}

func digestD(d [][][]float64) string {
	h := sha256.New()
	var b [8]byte
	for i := range d {
		for k := range d[i] {
			binary.LittleEndian.PutUint64(b[:], uint64(len(d[i][k])))
			h.Write(b[:])
			for _, x := range d[i][k] {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
				h.Write(b[:])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func digestE(e [][]bool) string {
	h := sha256.New()
	for i := range e {
		for _, on := range e[i] {
			if on {
				h.Write([]byte{1})
			} else {
				h.Write([]byte{0})
			}
		}
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

func goldenDeployment(dep *nips.Deployment) goldenLP {
	return goldenLP{Objective: math.Float64bits(dep.Objective), E: digestE(dep.E), D: digestD(dep.D)}
}

// emptyDeployment is a deployment of inst with nothing enabled.
func emptyDeployment(inst *nips.Instance) *nips.Deployment {
	dep := &nips.Deployment{E: make([][]bool, len(inst.Rules)), D: make([][][]float64, len(inst.Rules))}
	for i := range dep.E {
		dep.E[i] = make([]bool, inst.Topo.N())
		dep.D[i] = make([][]float64, len(inst.Paths))
		for k, path := range inst.Paths {
			dep.D[i][k] = make([]float64, len(path))
		}
	}
	return dep
}

// goldenLPs solves every NIPS-side LP on the replan_nips-shaped instance
// (50 nodes, 15 rules, the 30 heaviest paths): the relaxation; one
// rounding+lp and one rounding+greedy+lp deployment; the fixed-e re-solve
// on a partial enablement and on the all-disabled one; and Section 3.5's
// Lambda, once perturbed (an adapter's decision after one observed epoch)
// and once not (the best static decision over three epochs).
func goldenLPs(t *testing.T) map[string]goldenLP {
	t.Helper()
	inst := nips.NewInstance(topology.FiftyNode(), nips.UnitRules(15), nips.Config{
		MaxPaths: 30, RuleCapacityFraction: 0.1, MatchSeed: 1,
	})
	out := map[string]goldenLP{}

	rel, err := nips.SolveRelaxation(inst)
	if err != nil {
		t.Fatal(err)
	}
	out["relaxation"] = goldenLP{Objective: math.Float64bits(rel.Objective), Iters: rel.Iters, E: digestD([][][]float64{rel.E}), D: digestD(rel.D)}

	for _, v := range []nips.Variant{nips.VariantRoundLP, nips.VariantRoundGreedyLP} {
		dep, err := nips.SolveFromRelaxation(inst, rel, nips.SolveOptions{Variant: v, Iters: 2, Seed: 3, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		out[v.String()] = goldenDeployment(dep)
	}

	partial := emptyDeployment(inst)
	for i := range partial.E {
		for j := range partial.E[i] {
			partial.E[i][j] = (3*i+j)%4 == 0
		}
	}
	if err := nips.ResolveLP(inst, partial); err != nil {
		t.Fatal(err)
	}
	out["resolve/partial"] = goldenDeployment(partial)
	none := emptyDeployment(inst)
	if err := nips.ResolveLP(inst, none); err != nil {
		t.Fatal(err)
	}
	out["resolve/none"] = goldenDeployment(none)

	epochs := make([][][]float64, 3)
	for e := range epochs {
		epochs[e] = traffic.MatchRates(len(inst.Rules), len(inst.Paths), 0, 0.01, int64(40+e))
	}
	ad := online.NewAdapter(inst, 20, 0.01, 7)
	if err := ad.Observe(epochs[0]); err != nil {
		t.Fatal(err)
	}
	dec, err := ad.Decide()
	if err != nil {
		t.Fatal(err)
	}
	out["lambda/perturbed"] = goldenLP{D: digestD(dec.D)}
	static, total, err := online.BestStatic(inst, epochs)
	if err != nil {
		t.Fatal(err)
	}
	out["lambda/static"] = goldenLP{Objective: math.Float64bits(total), D: digestD(static.D)}
	return out
}

// TestLPGolden holds every NIPS-side LP outcome to the one captured before
// the d-only sampling model had a single builder: objectives bit for bit,
// and every enablement and d value through its digest.
func TestLPGolden(t *testing.T) {
	got := goldenLPs(t)
	names := make([]string, 0, len(got))
	for k := range got {
		names = append(names, k)
	}
	sort.Strings(names)
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
		if err := os.WriteFile(lpGoldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(lpGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update-golden on an intended LP change)", err)
	}
	var want map[string]goldenLP
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("%d cases in golden file, want %d", len(want), len(got))
	}
	for _, k := range names {
		w, ok := want[k]
		switch g := got[k]; {
		case !ok:
			t.Errorf("%s: not in golden file", k)
		case g.Objective != w.Objective:
			t.Errorf("%s: objective %v, want %v", k, math.Float64frombits(g.Objective), math.Float64frombits(w.Objective))
		case g != w:
			t.Errorf("%s: %+v, want %+v", k, g, w)
		}
	}
}
