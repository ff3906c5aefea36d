package bro

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"testing"

	"nwdeploy/internal/control"
	"nwdeploy/internal/core"
	"nwdeploy/internal/hashing"
	"nwdeploy/internal/obs"
	"nwdeploy/internal/topology"
	"nwdeploy/internal/traffic"
)

// updateGolden rewrites testdata/engine_golden.json from the engine under
// test. The file pins the cost model bit for bit, so only an *intended*
// cost change (a recalibrated constant, a new module) may regenerate it; a
// pure engine refactor must reproduce it unchanged.
var updateGolden = flag.Bool("update-golden", false, "rewrite internal/bro/testdata/engine_golden.json")

const goldenPath = "testdata/engine_golden.json"

// goldenReport is a Report with every float stored as its IEEE-754 bit
// pattern: decimal JSON floats would round-trip, but bit patterns make "the
// last ULP moved" a plain integer diff.
type goldenReport struct {
	Node         int               `json:"node"`
	CPUBits      uint64            `json:"cpu"`
	MemBits      uint64            `json:"mem"`
	Conns        int               `json:"conns"`
	Observed     int               `json:"observed"`
	Alerts       int               `json:"alerts"`
	PerModuleCPU map[string]uint64 `json:"per_module_cpu"`
	// ConnLog is the SHA-256 of RunWithLog's TSV for the same config (the
	// report RunWithLog returns must also equal Run's).
	ConnLog string `json:"conn_log,omitempty"`
	// Counters is the metrics snapshot of an instrumented run of the same
	// config, on the variants that record one.
	Counters map[string]int64 `json:"counters,omitempty"`
}

func toGolden(r Report) goldenReport {
	g := goldenReport{
		Node: r.Node, CPUBits: math.Float64bits(r.CPUUnits), MemBits: math.Float64bits(r.MemBytes),
		Conns: r.Conns, Observed: r.Observed, Alerts: r.Alerts,
		PerModuleCPU: make(map[string]uint64, len(r.PerModuleCPU)),
	}
	for name, v := range r.PerModuleCPU {
		g.PerModuleCPU[name] = math.Float64bits(v)
	}
	return g
}

// goldenCases runs every engine variant the golden file pins and returns
// the results keyed "variant/node".
func goldenCases(t *testing.T) map[string]goldenReport {
	t.Helper()
	const key = 7
	topo := topology.Internet2()
	hasher := hashing.Hasher{Key: key}
	mods := ModuleSubset(21) // baseline + 20: the Figure 6 end point
	sessions := traffic.Generate(topo, traffic.Gravity(topo), traffic.GenConfig{
		Sessions: 6000, Seed: 77, HostsPerNode: 8,
	})
	inst, err := core.BuildInstance(topo, Classes(mods), sessions, core.UniformCaps(topo.N(), 1e9, 1e12))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.Solve(inst, 1)
	if err != nil {
		t.Fatal(err)
	}

	out := map[string]goldenReport{}
	for j := 0; j < topo.N(); j++ {
		trace := nodeTraceFor(topo, sessions, j)
		man, err := control.ManifestFromPlan(plan, j, 1, key)
		if err != nil {
			t.Fatal(err)
		}
		base := Config{Modules: mods, Hasher: hasher, Node: j}
		with := func(f func(*Config)) Config { c := base; f(&c); return c }
		variants := []struct {
			name     string
			cfg      Config
			log      bool
			counters bool
		}{
			{"plain", with(func(c *Config) { c.Mode = ModePlain }), true, false},
			{"coord-policy", with(func(c *Config) { c.Mode = ModeCoordPolicy }), false, false},
			{"coord-event", with(func(c *Config) { c.Mode = ModeCoordEvent }), false, false},
			{"wire", with(func(c *Config) { c.Mode, c.Decider = ModeCoordEvent, control.NewDecider(man) }), true, true},
			{"wire-policy", with(func(c *Config) { c.Mode, c.Decider = ModeCoordPolicy, control.NewDecider(man) }), false, false},
			{"fine-grained", with(func(c *Config) {
				c.Mode, c.Decider, c.FineGrained = ModeCoordEvent, control.NewDecider(man), true
			}), true, true},
			{"wire-fine-policy", with(func(c *Config) {
				c.Mode, c.Decider, c.FineGrained = ModeCoordPolicy, control.NewDecider(man), true
			}), false, false},
			{"per-class", with(func(c *Config) { c.Mode, c.Decider = ModeCoordEvent, planDecider(plan, j, hasher) }), false, false},
		}
		for _, v := range variants {
			rep := Run(v.cfg, trace)
			g := toGolden(rep)
			if v.log {
				logRep, l := RunWithLog(v.cfg, trace)
				if lg := toGolden(logRep); !goldenEqual(lg, g) {
					t.Fatalf("%s/%d: RunWithLog report differs from Run's", v.name, j)
				}
				var buf bytes.Buffer
				if err := l.WriteTSV(&buf); err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(buf.Bytes())
				g.ConnLog = hex.EncodeToString(sum[:])
			}
			if v.counters {
				c := v.cfg
				c.Metrics = obs.New()
				if lg := toGolden(Run(c, trace)); !goldenEqual(lg, g) {
					t.Fatalf("%s/%d: instrumented report differs", v.name, j)
				}
				g.Counters = c.Metrics.Snapshot().Counters
			}
			out[v.name+"/"+strconv.Itoa(j)] = g
		}
	}
	return out
}

// goldenEqual compares the report fields (not the attached log digest or
// counters).
func goldenEqual(a, b goldenReport) bool {
	a.ConnLog, b.ConnLog, a.Counters, b.Counters = "", "", nil, nil
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	return bytes.Equal(ja, jb)
}

// TestEngineGolden holds the engine to reports captured from the commit
// before the compiled module table replaced the interpreted per-session
// loop: every float bit, every per-module CPU entry, the conn-log bytes
// and the published counters, across every decision source and mode.
func TestEngineGolden(t *testing.T) {
	got := goldenCases(t)
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if *updateGolden {
		// One compact line per case keeps the file diffable.
		var buf bytes.Buffer
		buf.WriteString("{\n")
		for i, k := range keys {
			line, err := json.Marshal(got[k])
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&buf, "%q: %s", k, line)
			if i < len(keys)-1 {
				buf.WriteByte(',')
			}
			buf.WriteByte('\n')
		}
		buf.WriteString("}\n")
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d cases to %s", len(keys), goldenPath)
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update-golden on a commit whose cost model you trust)", err)
	}
	var want map[string]goldenReport
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d cases, engine produced %d", len(want), len(got))
	}
	analyzed, alerts := 0, 0
	for _, k := range keys {
		w, ok := want[k]
		if !ok {
			t.Errorf("%s: not in golden file", k)
			continue
		}
		g := got[k]
		gj, _ := json.Marshal(g)
		wj, _ := json.Marshal(w)
		if !bytes.Equal(gj, wj) {
			t.Errorf("%s: engine diverges from golden\n got: cpu=%v mem=%v conns=%d alerts=%d\nwant: cpu=%v mem=%v conns=%d alerts=%d\n got %s\nwant %s",
				k, math.Float64frombits(g.CPUBits), math.Float64frombits(g.MemBits), g.Conns, g.Alerts,
				math.Float64frombits(w.CPUBits), math.Float64frombits(w.MemBits), w.Conns, w.Alerts, gj, wj)
		}
		analyzed += g.Conns
		alerts += g.Alerts
	}
	if analyzed == 0 || alerts == 0 {
		t.Fatalf("golden scenario is vacuous: %d conns, %d alerts", analyzed, alerts)
	}
}
