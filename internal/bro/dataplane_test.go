package bro

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"nwdeploy/internal/control"
	"nwdeploy/internal/core"
	"nwdeploy/internal/hashing"
	"nwdeploy/internal/obs"
	"nwdeploy/internal/traffic"
)

// wireDeciderScenario builds a solved deployment and hands back the wire
// manifest's Decider for one node — the full data-plane decision stack.
func wireDeciderScenario(t *testing.T) ([]ModuleSpec, []traffic.Session, *control.Decider, int) {
	t.Helper()
	topo, modules, sessions, plan := solvedScenario(t)
	node := 10
	m, err := control.ManifestFromPlan(plan, node, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	return modules, nodeTraceFor(topo, sessions, node), control.NewDecider(m), node
}

// The engine's published cpu_units/mem_bytes counters must equal the
// report they were derived from, rounded once from the finished report.
func TestRunMetricsMatchReport(t *testing.T) {
	modules, sessions, dec, node := wireDeciderScenario(t)
	reg := obs.New()
	cfg := Config{
		Mode: ModeCoordEvent, Modules: modules, Decider: dec, Node: node,
		Hasher: hashing.Hasher{Key: 1}, Metrics: reg,
	}
	rep := Run(cfg, sessions)
	if got, want := reg.Counter("bro.cpu_units").Value(), int64(math.Round(rep.CPUUnits)); got != want {
		t.Errorf("bro.cpu_units = %d, round(report.CPUUnits) = %d", got, want)
	}
	if got, want := reg.Counter("bro.mem_bytes").Value(), int64(math.Round(rep.MemBytes)); got != want {
		t.Errorf("bro.mem_bytes = %d, round(report.MemBytes) = %d", got, want)
	}
}

// The per-session path — masks, manifest decision, shed veto, module walk,
// compiled policy handlers, cost accounting — must not allocate once the
// policy tables are warm, for every decision source and with scripts on:
// session ingestion at line rate cannot afford per-session garbage.
func TestEngineDecisionPathAllocFree(t *testing.T) {
	topo, modules, all, plan := solvedScenario(t)
	const node = 10
	sessions := nodeTraceFor(topo, all, node)
	if len(sessions) < 64 {
		t.Fatal("scenario trace too small")
	}
	m, err := control.ManifestFromPlan(plan, node, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	h := hashing.Hasher{Key: 1}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"Plan", Config{Mode: ModeCoordEvent, Plan: plan}},
		{"Decider", Config{Mode: ModeCoordEvent, Decider: control.NewDecider(m)}},
		{"Decider+Shed", Config{Mode: ModeCoordPolicy, Decider: control.NewDecider(m), Shed: rangeShed{class: 0, lo: 0, hi: 0.5, h: h}}},
		{"standalone", Config{Mode: ModeCoordEvent}},
		{"plain", Config{Mode: ModePlain}},
	}
	for _, tc := range cases {
		cfg := tc.cfg
		cfg.Modules, cfg.Node, cfg.Hasher = modules, node, h
		var e engine
		e.init(cfg, nil)
		for i := range sessions { // warm the policy tables: every key this trace inserts
			e.processSession(&sessions[i])
		}
		if e.finish().MemBytes == 0 || e.tableBytes(0) == 0 {
			t.Errorf("%s: warm-up left scan's table empty; scripts are not running", tc.name)
		}
		i := 0
		if n := testing.AllocsPerRun(2000, func() {
			e.processSession(&sessions[i])
			i = (i + 1) % len(sessions)
		}); n != 0 {
			t.Errorf("%s: session path allocates %v per session, want 0", tc.name, n)
		}
	}
}

// Per-Run set-up must stay cheap: cluster runs eleven engines per epoch, so
// what a Run allocates before its first session is paid on every epoch of
// every node. The budget is what the pre-table engine allocated for the
// same 20 modules over an empty trace (a pair of maps per module, the
// PerModuleCPU map, three scratch rows): 3 of the 20 scripts write a table
// and 7 have any effect, so lazy tables and handlers pay for the compiled
// table. Scripts are deep-copied so the compile cost is that of 20 distinct
// programs, not of four aliased backing arrays.
func TestEngineSetupAllocBudget(t *testing.T) {
	const parentAllocs, parentBytes = 70, 4032 // Run(cfg, nil) on the parent commit, Workers: 1
	modules := ModuleSubset(21)[1:]
	for i := range modules {
		modules[i].PolicyScript = append(Script(nil), modules[i].PolicyScript...)
	}
	_, _, dec, node := wireDeciderScenario(t)
	cfg := Config{
		Mode: ModeCoordEvent, Modules: modules, Decider: dec, Node: node,
		Hasher: hashing.Hasher{Key: 1},
	}
	allocs := testing.AllocsPerRun(200, func() { Run(cfg, nil) })
	const reps = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		Run(cfg, nil)
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / reps
	t.Logf("Run set-up: %v objects, %.0f bytes (budget %d / %d)", allocs, bytes, parentAllocs, parentBytes)
	if allocs > parentAllocs || bytes > parentBytes {
		t.Fatalf("Run set-up allocates %v objects / %.0f bytes, budget %d / %d",
			allocs, bytes, parentAllocs, parentBytes)
	}
}

// The batch decision fast path must be invisible: a Decider driven through
// DecideAll and the same Decider driven per class must produce identical
// reports. perClassOnly hides the BatchDecider
// interface to force the slow path.
type perClassOnly struct{ d *control.Decider }

func (p perClassOnly) ShouldAnalyze(class int, s traffic.Session) bool {
	return p.d.ShouldAnalyze(class, s)
}

func TestBatchDecisionPathEquivalence(t *testing.T) {
	modules, sessions, dec, node := wireDeciderScenario(t)
	base := Config{
		Mode: ModeCoordEvent, Modules: modules, Node: node,
		Hasher: hashing.Hasher{Key: 1},
	}
	batched := base
	batched.Decider = dec
	perClass := base
	perClass.Decider = perClassOnly{dec}
	a, b := Run(batched, sessions), Run(perClass, sessions)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("batch and per-class decisions disagree:\n batch: %+v\n class: %+v", a, b)
	}
}

var _ core.Scope // keep core imported if scenarios change

// The strconv-based tuple rendering must be byte-identical to the fmt-based
// FiveTuple.String it replaced: conn-log equivalence checks compare these
// strings across deployments.
func TestCanonicalTupleStringMatchesFiveTupleString(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 1000; i++ {
		ft := hashing.FiveTuple{
			SrcIP:   rng.Uint32(),
			DstIP:   rng.Uint32(),
			SrcPort: uint16(rng.Intn(65536)),
			DstPort: uint16(rng.Intn(65536)),
			Proto:   uint8(rng.Intn(256)),
		}
		canon := ft
		if canon.SrcIP > canon.DstIP || (canon.SrcIP == canon.DstIP && canon.SrcPort > canon.DstPort) {
			canon = canon.Reverse()
		}
		got := canonicalTupleString(traffic.Session{Tuple: ft})
		if want := canon.String(); got != want {
			t.Fatalf("canonicalTupleString(%v) = %q, want %q", ft, got, want)
		}
	}
}
