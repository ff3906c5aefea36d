package bro

import (
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nwdeploy/internal/control"
	"nwdeploy/internal/core"
	"nwdeploy/internal/hashing"
	"nwdeploy/internal/topology"
	"nwdeploy/internal/traffic"
)

// runInline is Run's session loop with every decision made inline, in
// front of the session: the serial loop the ahead path must reproduce.
func runInline(cfg Config, sessions []traffic.Session, onAnalyze func(int, *traffic.Session)) Report {
	var e engine
	e.init(cfg, onAnalyze)
	for i := range sessions {
		e.processSession(&sessions[i])
	}
	return e.finish()
}

// runAheadAlways is Run's ahead loop without Run's gate (the sole engine,
// a second core), on a ring of its own: it decides ahead at GOMAXPROCS 1
// too, where the helper runs only when the engine yields.
func runAheadAlways(cfg Config, sessions []traffic.Session, onAnalyze func(int, *traffic.Session)) Report {
	var e engine
	e.init(cfg, onAnalyze)
	e.runAhead(sessions, new(aheadRing))
	return e.finish()
}

// yield is an onAnalyze callback that lets the helper run after every
// analysis, so it claims blocks even at GOMAXPROCS 1.
func yield(int, *traffic.Session) { runtime.Gosched() }

// aheadScenario is node 10's wire Decider with a node trace of several
// ring laps (more blocks than the helper may run ahead).
func aheadScenario(t testing.TB) ([]ModuleSpec, *control.Decider, []traffic.Session, int) {
	t.Helper()
	topo, modules, _, plan := solvedScenario(t)
	const node = 10
	m, err := control.ManifestFromPlan(plan, node, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	trace := nodeTraceFor(topo, mixedTrace(t, 25000), node)
	if len(trace) < 2*aheadDepth*aheadBlock {
		t.Fatalf("node trace of %d sessions spans fewer than %d blocks", len(trace), 2*aheadDepth)
	}
	return modules, control.NewDecider(m), trace, node
}

// helperLeft waits briefly for decideAhead's goroutine to vanish (the
// engine joins it on the flag it sets as it returns, a few instructions
// before it is gone) and reports whether one is still there.
func helperLeft() bool {
	deadline := time.Now().Add(2 * time.Second)
	for {
		buf := make([]byte, 1<<20)
		if !strings.Contains(string(buf[:runtime.Stack(buf, true)]), ".decideAhead(") {
			return false
		}
		if time.Now().After(deadline) {
			return true
		}
		time.Sleep(time.Millisecond)
	}
}

// Deciding ahead is an execution detail: the report and the conn log —
// record for record, in order — equal the inline loop's, at every trace
// length around a block boundary, in both coordinated modes, with the
// fine-grained extension on and off, with one core or two, through Run and
// through the ahead loop without Run's gate.
func TestRunAheadMatchesInline(t *testing.T) {
	modules, dec, trace, node := aheadScenario(t)
	lengths := []int{0, 1, aheadBlock - 1, aheadBlock, aheadBlock + 1, len(trace)}
	for _, procs := range []int{1, 2} {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		for _, mode := range []Mode{ModeCoordEvent, ModeCoordPolicy} {
			for _, fine := range []bool{false, true} {
				cfg := Config{
					Mode: mode, Modules: modules, Decider: dec, Node: node,
					Hasher: hashing.Hasher{Key: 1}, FineGrained: fine,
				}
				for _, n := range lengths {
					want, wantLog := runWithLog(runInline, cfg, trace[:n])
					for _, side := range []struct {
						name string
						run  func(Config, []traffic.Session, func(int, *traffic.Session)) Report
					}{{"RunWithLog", runInternal}, {"ahead", runAheadAlways}} {
						got, gotLog := runWithLog(side.run, cfg, trace[:n])
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s, GOMAXPROCS %d %v fine %v, %d sessions: report\n got %+v\nwant %+v", side.name, procs, mode, fine, n, got, want)
						}
						if !reflect.DeepEqual(gotLog.Records, wantLog.Records) {
							t.Fatalf("%s, GOMAXPROCS %d %v fine %v, %d sessions: conn logs differ", side.name, procs, mode, fine, n)
						}
					}
					if plain := Run(cfg, trace[:n]); !reflect.DeepEqual(plain, want) {
						t.Fatalf("GOMAXPROCS %d %v fine %v, %d sessions: Run differs from RunWithLog", procs, mode, fine, n)
					}
				}
			}
		}
	}
}

// spyDecider records which blocks the helper decided, by their first
// session, so the tests know the helper's verdicts were used.
type spyDecider struct {
	*control.Decider
	firsts map[*traffic.Session]int64 // block of each block's first session; read-only once Run starts
	helped *atomic.Int64              // blocks the helper decided
	last   *atomic.Int64              // the highest of them, -1 for none
}

func newSpy(dec *control.Decider, trace []traffic.Session) spyDecider {
	firsts := map[*traffic.Session]int64{}
	for i := 0; i < len(trace); i += aheadBlock {
		firsts[&trace[i]] = int64(i / aheadBlock)
	}
	spy := spyDecider{dec, firsts, new(atomic.Int64), new(atomic.Int64)}
	spy.last.Store(-1)
	return spy
}

func (d spyDecider) DecideMask(s *traffic.Session) (uint64, bool) {
	if b, ok := d.firsts[s]; ok && onHelper() {
		d.helped.Add(1)
		for last := d.last.Load(); b > last && !d.last.CompareAndSwap(last, b); last = d.last.Load() {
		}
	}
	return d.Decider.DecideMask(s)
}

// onHelper reports whether the calling goroutine is a decideAhead helper.
func onHelper() bool {
	buf := make([]byte, 4096)
	return strings.Contains(string(buf[:runtime.Stack(buf, false)]), ".decideAhead(")
}

// The helper really decides blocks: with an engine that yields on every
// analysis, it claims some at one core as at two, and the report is still
// the inline one. Run itself goes ahead when it is the sole engine and has
// two cores.
func TestRunAheadHelperDecides(t *testing.T) {
	modules, dec, trace, node := aheadScenario(t)
	for _, procs := range []int{1, 2} {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		for _, side := range []struct {
			name string
			run  func(Config, []traffic.Session, func(int, *traffic.Session)) Report
		}{{"Run", runInternal}, {"ahead", runAheadAlways}} {
			spy := newSpy(dec, trace)
			cfg := Config{Mode: ModeCoordEvent, Modules: modules, Decider: spy, Node: node, Hasher: hashing.Hasher{Key: 1}}
			got, want := side.run(cfg, trace, yield), runInline(cfg, trace, nil)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, GOMAXPROCS %d: report\n got %+v\nwant %+v", side.name, procs, got, want)
			}
			helped := spy.helped.Load()
			switch {
			case side.name == "Run" && procs == 1 && helped != 0:
				t.Errorf("Run at GOMAXPROCS 1: the helper decided %d blocks, want none", helped)
			case (side.name == "ahead" || procs > 1) && helped == 0:
				t.Errorf("%s, GOMAXPROCS %d: the helper decided none of %d blocks", side.name, procs, len(spy.firsts))
			}
		}
	}
}

// A Run beside another one decides every block inline, and a helper
// withdraws once a second Run starts: an engine fan-out keeps the cores
// busy without helpers. The reports stay the inline ones.
func TestRunAheadOnlySoleEngine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	modules, dec, trace, node := aheadScenario(t)
	cfg := func(spy spyDecider) Config {
		return Config{Mode: ModeCoordEvent, Modules: modules, Decider: spy, Node: node, Hasher: hashing.Hasher{Key: 1}}
	}
	want := runInline(cfg(newSpy(dec, trace)), trace, nil)

	// Another Run is in progress for the whole of this one.
	spy := newSpy(dec, trace)
	engines.Add(1)
	got := runInternal(cfg(spy), trace, yield)
	engines.Add(-1)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("beside another Run: report\n got %+v\nwant %+v", got, want)
	}
	if n := spy.helped.Load(); n != 0 {
		t.Errorf("beside another Run: the helper decided %d blocks, want none", n)
	}

	// Another Run starts while the engine is in block 2.
	const at = 2
	spy = newSpy(dec, trace)
	var started bool
	onAnalyze := func(m int, s *traffic.Session) {
		if !started && spy.firsts[s] == at && s != &trace[0] {
			started = true
			engines.Add(1)
		}
		runtime.Gosched()
	}
	got = runInternal(cfg(spy), trace, onAnalyze)
	if started {
		engines.Add(-1)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Run started mid-trace: report\n got %+v\nwant %+v", got, want)
	}
	if !started || spy.helped.Load() == 0 {
		t.Fatalf("the scenario did not happen: second Run started %v, helper decided %d blocks", started, spy.helped.Load())
	}
	// Once engines reads 2 the helper claims nothing new; it may have
	// claimed as far as the ring reaches from block at.
	if last := spy.last.Load(); last >= at+aheadDepth {
		t.Errorf("the helper decided block %d after a second Run started in block %d", last, at)
	}
	if helperLeft() {
		t.Fatal("a helper is still running")
	}
}

// faultDecider passes every class and panics at session at (nowhere when
// at is nil), recording whether the helper hit the fault.
type faultDecider struct {
	at        *traffic.Session
	helperHit *atomic.Bool
}

func (d faultDecider) DecideMask(s *traffic.Session) (uint64, bool) {
	if s == d.at {
		if onHelper() {
			d.helperHit.Store(true)
		}
		panic("decider fault")
	}
	return ^uint64(0), true
}

// catchStack runs f and returns the value it panicked with, and the stack
// of the goroutine that panicked, as the deferred recover sees it.
func catchStack(f func()) (r any, stack string) {
	defer func() {
		if r = recover(); r != nil {
			stack = string(debug.Stack())
		}
	}()
	f()
	return nil, ""
}

// withScriptFault returns trace and modules with a module whose policy
// script pops an empty stack, on the one session (index k) of its port.
func withScriptFault(modules []ModuleSpec, trace []traffic.Session, k int) ([]ModuleSpec, []traffic.Session) {
	used := map[uint16]bool{}
	for i := range trace {
		used[trace[i].Tuple.DstPort] = true
	}
	port := uint16(65535)
	for used[port] {
		port--
	}
	faulty := ModuleSpec{Name: "fault", Ports: []uint16{port}, PolicyEventsPerConn: 1, PolicyScript: Script{{Code: OpDrop}}}
	trace = append([]traffic.Session(nil), trace...)
	trace[k].Tuple.DstPort = port
	return append(append([]ModuleSpec(nil), modules...), faulty), trace
}

// A decider that panics part-way through surfaces from Run on the caller's
// goroutine with the value the inline loop raises and from the decider's
// own frame, whichever side decided the faulty block, and leaves no helper
// behind. When the helper hit the fault, the engine decides that block
// again inline, so a script fault earlier in the same block is raised
// first, as in the serial loop.
func TestRunAheadDeciderPanic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // the yielding engine hands the helper blocks 1 to aheadDepth
	modules, _, trace, node := aheadScenario(t)
	for _, tc := range []struct {
		name        string
		fault       int // the session the decider panics at
		script      int // a session whose policy script faults, -1 for none
		helperFault bool
	}{
		{"block 0", 5, -1, false},
		{"helper's block", 2*aheadBlock + 17, -1, true},
		{"last session", len(trace) - 1, -1, true},
		{"script fault first, same block", 2*aheadBlock + 500, 2*aheadBlock + 17, true},
	} {
		mods, tr := modules, trace
		if tc.script >= 0 {
			mods, tr = withScriptFault(modules, trace, tc.script)
		}
		dec := faultDecider{&tr[tc.fault], new(atomic.Bool)}
		cfg := Config{Mode: ModeCoordEvent, Modules: mods, Decider: dec, Node: node, Hasher: hashing.Hasher{Key: 1}}
		want, _ := catchStack(func() { runInline(cfg, tr, nil) })
		if want == nil || (tc.script >= 0) != (want == emptyStackFault) {
			t.Fatalf("%s: inline loop panicked with %v", tc.name, want)
		}
		for _, side := range []struct {
			name string
			run  func()
		}{{"Run", func() { Run(cfg, tr) }}, {"ahead", func() { runAheadAlways(cfg, tr, yield) }}} {
			dec.helperHit.Store(false)
			got, stack := catchStack(side.run)
			if got != want {
				t.Errorf("%s, %s: panicked with %v, inline with %v", tc.name, side.name, got, want)
			}
			if tc.script < 0 && (!strings.Contains(stack, "faultDecider.DecideMask") || strings.Contains(stack, ".decideAhead(")) {
				t.Errorf("%s, %s: the panic was not raised by the decider on the caller's goroutine:\n%s", tc.name, side.name, stack)
			}
			if side.name == "ahead" && dec.helperHit.Load() != tc.helperFault {
				t.Errorf("%s, ahead: the helper hit the fault: %v, want %v", tc.name, dec.helperHit.Load(), tc.helperFault)
			}
			if helperLeft() {
				t.Fatalf("%s, %s: a helper is still running", tc.name, side.name)
			}
		}
	}
}

// A policy-script fault deep in a multi-block trace panics on the engine's
// side while the helper is running ahead: Run raises the script's value and
// joins the helper first.
func TestRunAheadScriptPanic(t *testing.T) {
	modules, _, trace, node := aheadScenario(t)
	modules, trace = withScriptFault(modules, trace, 3*aheadBlock+100)
	cfg := Config{
		Mode: ModeCoordEvent, Modules: modules,
		Decider: faultDecider{}, Node: node, Hasher: hashing.Hasher{Key: 1},
	}
	want := catch(func() { runInline(cfg, trace, nil) })
	for _, procs := range []int{1, 2} {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		got := catch(func() { Run(cfg, trace) })
		ahead := catch(func() { runAheadAlways(cfg, trace, yield) })
		if want != emptyStackFault || got != want || ahead != want {
			t.Errorf("GOMAXPROCS %d: Run panicked with %v, the ahead loop with %v, inline with %v, want %q", procs, got, ahead, want, emptyStackFault)
		}
		if helperLeft() {
			t.Fatalf("GOMAXPROCS %d: a helper is still running", procs)
		}
	}
}

// A warm Run decides ahead without allocating more than a serial Run does
// over the same trace, bar the helper's goroutine: the ring is reused and
// the engine stays on Run's stack. The go statement
// allocates a goroutine descriptor (one 448-byte object) when the engine's
// P holds no exited goroutine to reuse, as in a young process, where the
// helper exits on the other P; a process that has run for a while has them
// and allocates none. The gate reads the median of the Runs after one
// warm-up, as serial Runs also allocate a runtime object or two now and
// then.
func TestRunAheadAllocFree(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2)) // Run goes ahead
	// A warm serial Run of this trace: the median of Runs whose helper
	// allocated no descriptor.
	const serialAllocs = 38
	serialBytes := uint64(243064)
	if raceEnabled {
		serialBytes = 243080
	}
	const helperAllocs, helperBytes = 1, 448 // the helper's goroutine descriptor
	modules, dec, trace, node := aheadScenario(t)
	cfg := Config{Mode: ModeCoordEvent, Modules: modules, Decider: dec, Node: node, Hasher: hashing.Hasher{Key: 1}}
	Run(cfg, trace) // warm-up
	const runs = 9
	allocs, bytes := make([]uint64, runs), make([]uint64, runs)
	helped := false
	for i := range allocs {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		Run(cfg, trace)
		runtime.ReadMemStats(&after)
		allocs[i], bytes[i] = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
		helped = helped || soleRing.written.Load() > 0
	}
	t.Logf("warm Runs of %d sessions: objects %v, bytes %v (serial %d / %d)", len(trace), allocs, bytes, serialAllocs, serialBytes)
	slices.Sort(allocs)
	slices.Sort(bytes)
	if a, b := allocs[runs/2], bytes[runs/2]; a > serialAllocs+helperAllocs || b > serialBytes+helperBytes {
		t.Fatalf("a warm Run allocates %d objects / %d bytes in the median, serial %d / %d plus the helper's %d / %d",
			a, b, serialAllocs, serialBytes, helperAllocs, helperBytes)
	}
	if !helped {
		t.Error("the helper decided no block: the gate measured the inline loop")
	}
}

var benchReport Report

// BenchmarkRunDecider times Run over node 10's trace under its wire
// manifest, the shape of cmd/perf's node_coord, per session. At -cpu 1 no
// core is idle for the helper and the loop is the serial one.
func BenchmarkRunDecider(b *testing.B) {
	modules, dec, trace, node := aheadScenario(b)
	cfg := Config{Mode: ModeCoordEvent, Modules: modules, Decider: dec, Node: node, Hasher: hashing.Hasher{Key: 1}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchReport = Run(cfg, trace)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(trace)), "ns/session")
}

// BenchmarkRunEdge times the standalone unmodified engine (ModePlain, every
// module of cmd/perf's 20 analyzing every session it matches) over node 10's
// share of the 100k trace, the shape of cmd/perf's node_edge, per session.
func BenchmarkRunEdge(b *testing.B) {
	trace := edgeTrace(b)
	cfg := Config{Mode: ModePlain, Modules: WithDuplicates(21)[1:], Node: 10, Hasher: hashing.Hasher{Key: 1}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchReport = Run(cfg, trace)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(trace)), "ns/session")
}

// BenchmarkEmulationFanout times the coordinated emulation of a 25k-session
// trace, its node Runs fanned out over GOMAXPROCS workers: the engines keep
// the cores busy, so none of them goes ahead.
func BenchmarkEmulationFanout(b *testing.B) {
	topo := topology.Internet2()
	em, err := NewEmulation(topo, StandardModules()[1:], mixedTrace(b, 25000), core.UniformCaps(topo.N(), 1e9, 1e12))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		em.Run(DeployCoordinated)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/emulation")
}
