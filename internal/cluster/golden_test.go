package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"nwdeploy/internal/chaos"
	"nwdeploy/internal/control"
	"nwdeploy/internal/ledger"
	"nwdeploy/internal/obs"
	"nwdeploy/internal/telemetry"
	"nwdeploy/internal/topology"
	"nwdeploy/internal/trace"
	"nwdeploy/internal/traffic"
)

// updateGolden rewrites testdata/reports_golden.json from the runtime under
// test. The file was captured on the commit before the three epoch loops
// (chaos, overload and scenario, once separate run modes) were merged and
// pins each of their reports bit for bit, so only an
// *intended* behaviour change may regenerate it; a refactor of the epoch
// loop must reproduce it unchanged.
var updateGolden = flag.Bool("update-golden", false, "rewrite internal/cluster/testdata/reports_golden.json")

const goldenPath = "testdata/reports_golden.json"

// goldenTree renders a report as a JSON-able tree keyed by Go field name,
// with every float stored as its IEEE-754 bit pattern (decimal floats would
// round-trip, but bit patterns make "the last ULP moved" a string diff).
func goldenTree(v reflect.Value) interface{} {
	switch v.Kind() {
	case reflect.Ptr:
		if v.IsNil() {
			return nil
		}
		return goldenTree(v.Elem())
	case reflect.Struct:
		m := map[string]interface{}{}
		for i := 0; i < v.NumField(); i++ {
			m[v.Type().Field(i).Name] = goldenTree(v.Field(i))
		}
		return m
	case reflect.Slice:
		out := make([]interface{}, v.Len())
		for i := range out {
			out[i] = goldenTree(v.Index(i))
		}
		return out
	case reflect.Float64:
		return fmt.Sprintf("f64:%016x", math.Float64bits(v.Float()))
	case reflect.Int, reflect.Int64:
		return fmt.Sprint(v.Int())
	case reflect.Uint64:
		return fmt.Sprint(v.Uint())
	case reflect.Bool:
		return v.Bool()
	case reflect.String:
		return v.String()
	}
	panic("goldenTree: unhandled kind " + v.Kind().String())
}

// goldenDiff lists where got departs from want. It is a subset comparison:
// a report may carry fields the golden file does not know, but every field
// the file pins must be present and equal, and slices must agree in length.
func goldenDiff(path string, want, got interface{}, out *[]string) {
	switch w := want.(type) {
	case map[string]interface{}:
		g, ok := got.(map[string]interface{})
		if !ok {
			*out = append(*out, fmt.Sprintf("%s: want object, got %T", path, got))
			return
		}
		keys := make([]string, 0, len(w))
		for k := range w {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			gv, ok := g[k]
			if !ok {
				*out = append(*out, fmt.Sprintf("%s.%s: missing", path, k))
				continue
			}
			goldenDiff(path+"."+k, w[k], gv, out)
		}
	case []interface{}:
		g, ok := got.([]interface{})
		if !ok || len(g) != len(w) {
			*out = append(*out, fmt.Sprintf("%s: want %d elements, got %v", path, len(w), got))
			return
		}
		for i := range w {
			goldenDiff(fmt.Sprintf("%s[%d]", path, i), w[i], g[i], out)
		}
	default:
		if !reflect.DeepEqual(want, got) {
			*out = append(*out, fmt.Sprintf("%s: want %v, got %v", path, want, got))
		}
	}
}

// goldenScenario is a ScenarioReport plus the SHA-256 of the run's full
// trace dump: the scenario path's event stream is pinned too.
type goldenScenario struct {
	Report    *ScenarioReport
	TraceHash string
}

func dumpHash(t *testing.T, tr *trace.Tracer) string {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Dump(&buf, "golden"); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// goldenDiurnalScenario is shaped like cmd/perf's cluster_epoch workload:
// a diurnal day over Internet2 with the governor, warm replans, the data
// plane and all four product planes on.
func goldenDiurnalScenario(t *testing.T) goldenScenario {
	t.Helper()
	const seed, epochs = 11, 8
	topo := topology.Internet2()
	dcfg := traffic.DiurnalConfig{Period: epochs, Amplitude: 0.45, Seed: seed}
	tr := trace.New(trace.Options{Seed: seed})
	rep, err := RunScenario(ScenarioConfig{
		Driver: &scriptDriver{name: "diurnal", step: func(env *ScenarioEnv) Stimulus {
			return Stimulus{PairScale: traffic.DiurnalFactors(len(env.Pairs), env.Epoch, dcfg)}
		}},
		Topo: topo, Sessions: 1500, TrafficSeed: 11, Seed: seed,
		Epochs: epochs, Redundancy: 2,
		Governor: true, Replan: true, WarmReplan: true, DataPlane: true,
		Probes:  500,
		Metrics: obs.New(), Trace: tr,
		Ledger:       ledger.New(ledger.Options{Seed: seed}),
		Fleet:        telemetry.NewFleet(topo.N(), telemetry.FleetOptions{}),
		FleetHistory: telemetry.NewHistory(epochs),
	})
	if err != nil {
		t.Fatal(err)
	}
	return goldenScenario{Report: rep, TraceHash: dumpHash(t, tr)}
}

// scriptedFaultDriver is the crash + drain + controller-outage + injection
// script TestRunScenarioWorkersDeterminism runs, factored out so the golden
// file pins the same run.
func scriptedFaultDriver(t *testing.T, topo *topology.Topology) ScenarioDriver {
	t.Helper()
	// Injections only have a coordination unit to land in when the modeled
	// workload put matching traffic on their pair, so pick pairs that carry
	// telnet in the exact workload RunScenario will generate.
	var telnetPairs [][2]int
	seen := map[[2]int]bool{}
	for _, s := range traffic.Generate(topo, traffic.Gravity(topo), traffic.GenConfig{Sessions: 600, Seed: 11}) {
		if s.Tuple.DstPort == 23 && !seen[[2]int{s.Src, s.Dst}] {
			seen[[2]int{s.Src, s.Dst}] = true
			telnetPairs = append(telnetPairs, [2]int{s.Src, s.Dst})
		}
	}
	if len(telnetPairs) < 2 {
		t.Fatalf("workload has %d telnet pairs, need 2", len(telnetPairs))
	}
	p1, p2 := telnetPairs[0], telnetPairs[1]
	return &scriptDriver{name: "scripted", step: func(env *ScenarioEnv) Stimulus {
		var st Stimulus
		switch env.Epoch {
		case 2:
			st.PairScale = make([]float64, len(env.Pairs))
			for k, p := range env.Pairs {
				st.PairScale[k] = 1
				if p[0] == 0 || p[1] == 0 {
					st.PairScale[k] = 4
				}
			}
			st.Inject = injectBurst(env.Epoch, 40, p1[0], p1[1])
		case 3:
			st.Faults = chaos.EpochFaults{DownNodes: []int{1}}
			st.Inject = injectBurst(env.Epoch, 25, p2[0], p2[1])
		case 4:
			st.Drains = []int{2}
			st.Faults = chaos.EpochFaults{ControllerDown: true}
		}
		return st
	}}
}

func scriptedFaultConfig(t *testing.T, workers int) ScenarioConfig {
	topo := topology.Internet2()
	return ScenarioConfig{
		Driver:   scriptedFaultDriver(t, topo),
		Topo:     topo,
		Sessions: 600, TrafficSeed: 11, Seed: 42,
		Epochs: 5, Redundancy: 2,
		Governor: true, Replan: true, WarmReplan: true,
		ReplanThreshold: 0.15, ReplanMaxIters: 4000,
		Retry:      RetryPolicy{MaxAttempts: 1, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond, Multiplier: 1},
		StaleGrace: 2,
		DataPlane:  true,
		Probes:     400,
		Workers:    workers,
	}
}

// lossyScenarioConfig is the scripted fault run over a lossy control
// network: drops and black holes on every agent's dials, so fetch failures
// occur under the scenario runtime too.
func lossyScenarioConfig(t *testing.T) ScenarioConfig {
	cfg := scriptedFaultConfig(t, 0)
	cfg.Faults = chaos.NetworkFaults{DropProb: 0.25, BlackholeProb: 0.1}
	cfg.Retry = RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}
	cfg.Agent = control.AgentOptions{DialTimeout: 100 * time.Millisecond, RPCTimeout: 100 * time.Millisecond}
	return cfg
}

// legacyTree renders a report as goldenTree does, adding the names the
// golden file pins from before chaos and overload runs returned a
// ScenarioReport: a chaos epoch's ControllerDown and PredictedWorst/Avg
// (CtrlDown and ExpectedWorst/Avg), and an overload report's WarmReplan
// and per-epoch ShedFloorWorst/Avg (the expectation when governed, else
// 1: ungoverned, nothing sheds).
func legacyTree(rep *ScenarioReport, cfg ScenarioConfig) interface{} {
	tree := goldenTree(reflect.ValueOf(rep)).(map[string]interface{})
	_, chaosRun := cfg.Driver.(*ChaosDriver)
	if !chaosRun {
		tree["WarmReplan"] = cfg.WarmReplan
	}
	one := goldenTree(reflect.ValueOf(1.0))
	for _, e := range tree["Epochs"].([]interface{}) {
		m := e.(map[string]interface{})
		switch {
		case chaosRun:
			m["ControllerDown"], m["PredictedWorst"], m["PredictedAvg"] = m["CtrlDown"], m["ExpectedWorst"], m["ExpectedAvg"]
		case cfg.Governor:
			m["ShedFloorWorst"], m["ShedFloorAvg"] = m["ExpectedWorst"], m["ExpectedAvg"]
		default:
			m["ShedFloorWorst"], m["ShedFloorAvg"] = one, one
		}
	}
	return tree
}

// goldenCases runs every report the golden file pins and renders each as
// a golden tree.
func goldenCases(t *testing.T) map[string]interface{} {
	t.Helper()
	out := map[string]interface{}{}
	run := func(name string, cfg ScenarioConfig) {
		rep, err := RunScenario(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = legacyTree(rep, cfg)
	}
	for _, seed := range []int64{21, 22} {
		for _, p := range []struct {
			name   string
			deltas bool
			enc    control.Encoding
		}{
			{"legacy", false, control.EncodingJSON},
			{"delta-json", true, control.EncodingJSON},
			{"delta-binary", true, control.EncodingBinary},
		} {
			cfg := smallChaosConfig(seed, 0)
			cfg.Deltas, cfg.Encoding = p.deltas, p.enc
			run(fmt.Sprintf("chaos/seed%d/%s", seed, p.name), cfg)
		}
	}
	for _, seed := range []int64{5, 6, 9} {
		run(fmt.Sprintf("overload/seed%d", seed), smallOverloadConfig(seed, 0))
	}
	for _, warm := range []bool{true, false} {
		run(fmt.Sprintf("overload/replan-warm=%v", warm), replanConfig(warm))
	}
	out["scenario/diurnal"] = goldenTree(reflect.ValueOf(goldenDiurnalScenario(t)))

	tr := trace.New(trace.Options{Seed: 42})
	cfg := scriptedFaultConfig(t, 0)
	cfg.Trace = tr
	rep, err := RunScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out["scenario/crash-drain-inject"] = goldenTree(reflect.ValueOf(goldenScenario{Report: rep, TraceHash: dumpHash(t, tr)}))

	tr = trace.New(trace.Options{Seed: 42})
	cfg = lossyScenarioConfig(t)
	cfg.Trace = tr
	if rep, err = RunScenario(cfg); err != nil {
		t.Fatal(err)
	}
	out["scenario/lossy"] = goldenTree(reflect.ValueOf(goldenScenario{Report: rep, TraceHash: dumpHash(t, tr)}))
	return out
}

// Every former run mode's report — chaos × 6, overload × 5, scenario × 3
// with the trace-dump hash — must match the file captured before the epoch
// loops were merged, bit for bit, over every field that file knows.
func TestReportsGolden(t *testing.T) {
	got := goldenCases(t)
	data, err := json.MarshalIndent(got, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d cases)", goldenPath, len(got))
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update-golden on an intended behaviour change)", err)
	}
	var want map[string]interface{}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	// Round-trip the fresh tree through JSON so both sides hold the same
	// generic types.
	var fresh map[string]interface{}
	if err := json.Unmarshal(data, &fresh); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(fresh) {
		t.Errorf("golden has %d cases, run produced %d", len(want), len(fresh))
	}
	var diffs []string
	goldenDiff("", want, fresh, &diffs)
	for i, d := range diffs {
		if i == 40 {
			t.Errorf("... and %d more", len(diffs)-i)
			break
		}
		t.Error(d)
	}
}
