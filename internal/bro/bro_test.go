package bro

import (
	"bytes"
	"io"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"nwdeploy/internal/core"
	"nwdeploy/internal/hashing"
	"nwdeploy/internal/packet"
	"nwdeploy/internal/topology"
	"nwdeploy/internal/traffic"
)

func mixedTrace(t testing.TB, n int) []traffic.Session {
	t.Helper()
	topo := topology.Internet2()
	return traffic.Generate(topo, traffic.Gravity(topo), traffic.GenConfig{Sessions: n, Seed: 17})
}

func moduleByName(t *testing.T, name string) ModuleSpec {
	t.Helper()
	for _, m := range StandardModules() {
		if m.Name == name {
			return m
		}
	}
	t.Fatalf("no module %q", name)
	return ModuleSpec{}
}

func TestStandardModulesShape(t *testing.T) {
	mods := StandardModules()
	if len(mods) != 9 {
		t.Fatalf("standard set has %d modules, want 9 (Figure 5)", len(mods))
	}
	names := map[string]bool{}
	for _, m := range mods {
		if names[m.Name] {
			t.Fatalf("duplicate module name %q", m.Name)
		}
		names[m.Name] = true
	}
	for _, want := range []string{"baseline", "scan", "irc", "login", "tftp", "http", "blaster", "signature", "synflood"} {
		if !names[want] {
			t.Fatalf("missing module %q", want)
		}
	}
	// Scan and TFTP are policy-only: their checks cannot move earlier.
	if moduleByName(t, "scan").EarliestCheck != StagePolicy {
		t.Fatal("scan check must be policy-stage")
	}
	if moduleByName(t, "tftp").EarliestCheck != StagePolicy {
		t.Fatal("tftp check must be policy-stage")
	}
	// HTTP/IRC/Login can check in the event engine.
	for _, n := range []string{"http", "irc", "login", "signature"} {
		if moduleByName(t, n).EarliestCheck != StageEvent {
			t.Fatalf("%s check should be event-stage", n)
		}
	}
}

func TestWithDuplicates(t *testing.T) {
	mods := WithDuplicates(21)
	if len(mods) != 21 {
		t.Fatalf("got %d modules, want 21", len(mods))
	}
	names := map[string]bool{}
	for _, m := range mods {
		if names[m.Name] {
			t.Fatalf("duplicate name %q", m.Name)
		}
		names[m.Name] = true
	}
	if !names["http-dup2"] || !names["tftp-dup4"] {
		t.Fatalf("unexpected duplicate naming: %v", names)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when shrinking below the standard set")
		}
	}()
	WithDuplicates(3)
}

func TestRunDeterministic(t *testing.T) {
	trace := mixedTrace(t, 2000)
	cfg := Config{Mode: ModeCoordEvent, Modules: StandardModules(), Hasher: hashing.Hasher{Key: 3}}
	a := Run(cfg, trace)
	b := Run(cfg, trace)
	if a.CPUUnits != b.CPUUnits || a.MemBytes != b.MemBytes || a.Alerts != b.Alerts {
		t.Fatalf("engine runs are not deterministic: %+v vs %+v", a, b)
	}
	if a.CPUUnits <= 0 || a.MemBytes <= 0 || a.Conns != 2000 {
		t.Fatalf("implausible report: %+v", a)
	}
}

// TestFig5CPUOverheadShape verifies the standalone microbenchmark
// reproduces the relative ordering of Figure 5(a):
//   - Baseline, Signature, Blaster, SYNFlood: small overhead (~2%) in both
//     coordinated variants.
//   - Scan, TFTP: moderate (~10%) in both variants (their checks cannot
//     leave the policy engine).
//   - HTTP, IRC, Login: large overhead when the check is in the policy
//     engine, small when it is in the event engine.
func TestFig5CPUOverheadShape(t *testing.T) {
	trace := mixedTrace(t, 20000)
	overhead := func(name string, mode Mode) float64 {
		return MeasureOverhead(moduleByName(t, name), mode, trace).CPURatio
	}
	for _, name := range []string{"baseline", "signature", "blaster", "synflood"} {
		for _, mode := range []Mode{ModeCoordPolicy, ModeCoordEvent} {
			if o := overhead(name, mode); o <= 0 || o > 0.06 {
				t.Errorf("%s/%v overhead = %.3f, want (0, 0.06]", name, mode, o)
			}
		}
	}
	for _, name := range []string{"scan", "tftp"} {
		oPol := overhead(name, ModeCoordPolicy)
		oEvt := overhead(name, ModeCoordEvent)
		if oPol < 0.05 || oPol > 0.2 {
			t.Errorf("%s policy overhead = %.3f, want ~0.1", name, oPol)
		}
		// Both variants place the check in the same (policy) stage.
		if diff := oPol - oEvt; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("%s: variants differ (%v vs %v) though check cannot move", name, oPol, oEvt)
		}
	}
	for _, name := range []string{"http", "irc", "login"} {
		oPol := overhead(name, ModeCoordPolicy)
		oEvt := overhead(name, ModeCoordEvent)
		if oEvt >= 0.06 {
			t.Errorf("%s event-engine overhead = %.3f, want < 0.06", name, oEvt)
		}
		if oPol < 2*oEvt {
			t.Errorf("%s policy overhead %.3f not clearly above event %.3f", name, oPol, oEvt)
		}
		if oPol < 0.05 || oPol > 0.3 {
			t.Errorf("%s policy overhead = %.3f, want in [0.05, 0.3]", name, oPol)
		}
	}
}

// TestFig5MemoryOverhead: the hash fields add at most ~6% memory.
func TestFig5MemoryOverhead(t *testing.T) {
	trace := mixedTrace(t, 8000)
	for _, m := range StandardModules() {
		for _, mode := range []Mode{ModeCoordPolicy, ModeCoordEvent} {
			o := MeasureOverhead(m, mode, trace)
			if o.MemRatio <= 0 || o.MemRatio > 0.065 {
				t.Errorf("%s/%v memory overhead = %.4f, want (0, 0.065]", m.Name, mode, o.MemRatio)
			}
		}
	}
}

func TestScanDetectionFires(t *testing.T) {
	// Craft a scanning workload: one source contacting many destinations.
	topo := topology.Internet2()
	var sessions []traffic.Session
	for i := 0; i < 2*scanThreshold; i++ {
		sessions = append(sessions, traffic.Session{
			ID: i, Src: 0, Dst: 10,
			Tuple: hashing.FiveTuple{
				SrcIP: 10 << 24, DstIP: 10<<24 | 10<<16 | uint32(i),
				SrcPort: 4000, DstPort: 80, Proto: 6,
			},
			Proto: traffic.HTTP, Packets: 3, Bytes: 200,
		})
	}
	_ = topo
	scan := moduleByName(t, "scan")
	rep := Run(Config{Mode: ModePlain, Modules: []ModuleSpec{scan}, Hasher: hashing.Hasher{Key: 2}}, sessions)
	if rep.Alerts == 0 {
		t.Fatal("scanning source raised no alerts")
	}
	// Exactly the connections beyond the threshold alert (3 policy events
	// per conn re-evaluate the same set, so alerts fire per event once the
	// set exceeds the threshold).
	if rep.Alerts < scanThreshold {
		t.Fatalf("alerts = %d, want >= %d", rep.Alerts, scanThreshold)
	}
}

func TestCoverageEquivalenceWithStandalone(t *testing.T) {
	// The paper: "a network-wide deployment should be logically equivalent
	// to running a single NIDS on the entire traffic" (verified there by
	// inspecting Bro logs). Here: total alerts across the coordinated
	// network equal a single standalone instance's alerts.
	topo := topology.Internet2()
	tm := traffic.Gravity(topo)
	sessions := traffic.Generate(topo, tm, traffic.GenConfig{Sessions: 6000, Seed: 5, HostsPerNode: 8})
	mods := StandardModules()[1:] // without the baseline pseudo-module
	em, err := NewEmulation(topo, mods, sessions, core.UniformCaps(topo.N(), 1e9, 1e12))
	if err != nil {
		t.Fatal(err)
	}
	coord := em.Run(DeployCoordinated)

	standalone := Run(Config{Mode: ModePlain, Modules: mods, Hasher: em.Hasher}, sessions)
	if got, want := coord.TotalAlerts(), standalone.Alerts; got != want {
		t.Fatalf("coordinated alerts = %d, standalone = %d; deployments not equivalent", got, want)
	}
	if standalone.Alerts == 0 {
		t.Fatal("workload produced no alerts; equivalence check is vacuous")
	}
}

func TestCoordinatedReducesMaxLoadVsEdge(t *testing.T) {
	topo := topology.Internet2()
	tm := traffic.Gravity(topo)
	sessions := traffic.Generate(topo, tm, traffic.GenConfig{Sessions: 8000, Seed: 23})
	mods := ModuleSubset(21)[1:] // 20 real modules
	em, err := NewEmulation(topo, mods, sessions, core.UniformCaps(topo.N(), 1e9, 1e12))
	if err != nil {
		t.Fatal(err)
	}
	edge := em.Run(DeployEdge)
	coord := em.Run(DeployCoordinated)
	if coord.MaxCPU() >= edge.MaxCPU() {
		t.Fatalf("coordinated max CPU %v >= edge %v", coord.MaxCPU(), edge.MaxCPU())
	}
	if coord.MaxMem() >= edge.MaxMem() {
		t.Fatalf("coordinated max mem %v >= edge %v", coord.MaxMem(), edge.MaxMem())
	}
	// The hotspot in the edge deployment is New York (node 10), the
	// heaviest gravity endpoint — the paper's Figure 8 observation.
	ny, _ := topo.NodeByName("NYCM")
	for j, rep := range edge.Reports {
		if j != ny.ID && rep.CPUUnits > edge.Reports[ny.ID].CPUUnits {
			t.Fatalf("edge hotspot is node %d, want NYC (%d)", j, ny.ID)
		}
	}
}

func TestEmulationRejectsBaseline(t *testing.T) {
	topo := topology.Internet2()
	sessions := mixedTrace(t, 100)
	_, err := NewEmulation(topo, StandardModules(), sessions, core.UniformCaps(topo.N(), 1e9, 1e12))
	if err == nil {
		t.Fatal("expected rejection of baseline pseudo-module")
	}
}

func TestModeStrings(t *testing.T) {
	if ModePlain.String() != "plain" || ModeCoordPolicy.String() != "coord-policy" ||
		ModeCoordEvent.String() != "coord-event" || Mode(9).String() != "Mode(9)" {
		t.Fatal("mode names wrong")
	}
	if DeployEdge.String() != "edge" || DeployCoordinated.String() != "coordinated" {
		t.Fatal("deployment names wrong")
	}
}

func TestEarlyDropSkipsState(t *testing.T) {
	// A coordinated node whose manifests exclude everything must not
	// create connection state, but still pays capture cost.
	topo := topology.Internet2()
	tm := traffic.Gravity(topo)
	sessions := traffic.Generate(topo, tm, traffic.GenConfig{Sessions: 1500, Seed: 31})
	mods := StandardModules()[1:]
	em, err := NewEmulation(topo, mods, sessions, core.UniformCaps(topo.N(), 1e9, 1e12))
	if err != nil {
		t.Fatal(err)
	}
	res := em.Run(DeployCoordinated)
	anySkipped := false
	for _, rep := range res.Reports {
		if rep.Conns < rep.Observed {
			anySkipped = true
		}
		if rep.Conns > rep.Observed {
			t.Fatalf("node %d created %d conns from %d sessions", rep.Node, rep.Conns, rep.Observed)
		}
	}
	if !anySkipped {
		t.Fatal("no node ever skipped state creation; early-drop optimization inert")
	}
}

func TestFineGrainedReducesFootprint(t *testing.T) {
	// Section 2.5: with first-packet events, nodes whose only duty for a
	// session is scan/blaster/synflood skip connection tracking, cutting
	// both CPU and memory versus the record-granularity prototype while
	// preserving the detection results.
	topo := topology.Internet2()
	tm := traffic.Gravity(topo)
	sessions := traffic.Generate(topo, tm, traffic.GenConfig{Sessions: 6000, Seed: 5, HostsPerNode: 8})
	mods := StandardModules()[1:]
	em, err := NewEmulation(topo, mods, sessions, core.UniformCaps(topo.N(), 1e9, 1e12))
	if err != nil {
		t.Fatal(err)
	}
	coarse := em.RunFineGrained(DeployCoordinated, false)
	fine := em.RunFineGrained(DeployCoordinated, true)

	var coarseMem, fineMem, coarseCPU, fineCPU float64
	for j := range coarse.Reports {
		coarseMem += coarse.Reports[j].MemBytes
		fineMem += fine.Reports[j].MemBytes
		coarseCPU += coarse.Reports[j].CPUUnits
		fineCPU += fine.Reports[j].CPUUnits
	}
	if fineMem >= coarseMem {
		t.Fatalf("fine-grained total memory %v >= coarse %v", fineMem, coarseMem)
	}
	if fineCPU >= coarseCPU {
		t.Fatalf("fine-grained total CPU %v >= coarse %v", fineCPU, coarseCPU)
	}
	// Scan detection results are preserved: the same scanning sources are
	// flagged (alert *counts* differ because the coarse pipeline re-runs
	// handlers per connection event; presence of alerts is the invariant).
	if coarse.TotalAlerts() == 0 || fine.TotalAlerts() == 0 {
		t.Fatalf("alerts lost: coarse=%d fine=%d", coarse.TotalAlerts(), fine.TotalAlerts())
	}
}

func TestFineGrainedOffByDefault(t *testing.T) {
	topo := topology.Internet2()
	tm := traffic.Gravity(topo)
	sessions := traffic.Generate(topo, tm, traffic.GenConfig{Sessions: 1200, Seed: 6})
	mods := StandardModules()[1:]
	em, err := NewEmulation(topo, mods, sessions, core.UniformCaps(topo.N(), 1e9, 1e12))
	if err != nil {
		t.Fatal(err)
	}
	a := em.Run(DeployCoordinated)
	b := em.RunFineGrained(DeployCoordinated, false)
	for j := range a.Reports {
		if a.Reports[j].CPUUnits != b.Reports[j].CPUUnits {
			t.Fatalf("Run and RunFineGrained(false) diverge at node %d", j)
		}
	}
}

func TestRunPcapMatchesSessionRun(t *testing.T) {
	// Driving the engine from a pcap trace must agree with driving it from
	// the generator's session list on conn counts and alerts (CPU/memory
	// differ slightly: packet counts are normalized by the TCP expansion's
	// handshake/teardown minimums).
	topo := topology.Internet2()
	sessions := traffic.Generate(topo, traffic.Gravity(topo), traffic.GenConfig{Sessions: 250, Seed: 13, HostsPerNode: 8})
	var buf bytes.Buffer
	if _, err := packet.WriteSessionsPcap(packet.NewWriter(&buf), sessions, time.Unix(1_700_000_000, 0), 0, 3); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Mode: ModePlain, Modules: StandardModules()[1:], Hasher: hashing.Hasher{Key: 4}}
	fromPcap, err := RunPcap(cfg, bytes.NewReader(buf.Bytes()), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	direct := Run(cfg, sessions)
	if fromPcap.Conns != direct.Conns {
		t.Fatalf("pcap path tracked %d conns, session path %d", fromPcap.Conns, direct.Conns)
	}
	if fromPcap.Observed != direct.Observed {
		t.Fatalf("pcap path observed %d sessions, session path %d", fromPcap.Observed, direct.Observed)
	}
	if fromPcap.CPUUnits <= 0 || fromPcap.MemBytes <= 0 {
		t.Fatalf("implausible pcap-driven report: %+v", fromPcap)
	}
}

// RunPcap streams sessions into the engine as the assembler completes them;
// the report must be the one Run gives over the same capture's collected
// sessions, field for field.
func TestRunPcapEqualsRunOverReadSessions(t *testing.T) {
	topo := topology.Internet2()
	sessions := traffic.Generate(topo, traffic.Gravity(topo), traffic.GenConfig{Sessions: 400, Seed: 9, HostsPerNode: 8})
	var buf bytes.Buffer
	if _, err := packet.WriteSessionsPcap(packet.NewWriter(&buf), sessions, time.Unix(1_700_000_000, 0), time.Second, 3); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Mode: ModePlain, Modules: StandardModules(), Hasher: hashing.Hasher{Key: 4}}
	streamed, err := RunPcap(cfg, bytes.NewReader(buf.Bytes()), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	collected, _, err := packet.ReadSessions(packet.NewReader(bytes.NewReader(buf.Bytes())), time.Minute, cfg.Hasher.Key)
	if err != nil {
		t.Fatal(err)
	}
	if want := Run(cfg, collected); !reflect.DeepEqual(streamed, want) {
		t.Fatalf("RunPcap report %+v\nRun(ReadSessions) report %+v", streamed, want)
	}
}

// A warm RunPcap reads through the reader the last call left behind, so
// over a small capture it allocates less than that reader's 128 KiB buffer,
// which every call allocated while it built its own. The slot holds the
// reader across garbage collections; the gate reads the median of nine
// calls after a warm-up.
func TestRunPcapReaderAlloc(t *testing.T) {
	topo := topology.Internet2()
	sessions := traffic.Generate(topo, traffic.Gravity(topo), traffic.GenConfig{Sessions: 20, Seed: 9, HostsPerNode: 8})
	var buf bytes.Buffer
	if _, err := packet.WriteSessionsPcap(packet.NewWriter(&buf), sessions, time.Unix(1_700_000_000, 0), time.Second, 3); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Mode: ModePlain, Modules: StandardModules(), Hasher: hashing.Hasher{Key: 4}}
	run := func() {
		if _, err := RunPcap(cfg, bytes.NewReader(buf.Bytes()), time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	run()
	const runs, readerBytes = 9, 128 << 10
	got := make([]uint64, runs)
	for i := range got {
		if i%3 == 0 {
			runtime.GC()
			runtime.GC()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		got[i] = after.TotalAlloc - before.TotalAlloc
	}
	t.Logf("warm RunPcap of %d sessions: bytes per call %v", len(sessions), got)
	slices.Sort(got)
	if got[runs/2] >= readerBytes {
		t.Fatalf("a warm RunPcap allocates %d bytes in the median, at least the reader's %d-byte buffer", got[runs/2], readerBytes)
	}
}

// Calls that overlap each read through a reader of their own (the slot
// holds one): four goroutines running one capture at once, three rounds
// over, all get the report of a lone call.
func TestRunPcapConcurrent(t *testing.T) {
	topo := topology.Internet2()
	sessions := traffic.Generate(topo, traffic.Gravity(topo), traffic.GenConfig{Sessions: 200, Seed: 9, HostsPerNode: 8})
	var buf bytes.Buffer
	if _, err := packet.WriteSessionsPcap(packet.NewWriter(&buf), sessions, time.Unix(1_700_000_000, 0), time.Second, 3); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Mode: ModePlain, Modules: StandardModules(), Hasher: hashing.Hasher{Key: 4}}
	want, err := RunPcap(cfg, bytes.NewReader(buf.Bytes()), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	got, errs := make([]Report, 12), make([]error, 12)
	for round := 0; round < 3; round++ {
		var wg sync.WaitGroup
		for i := round * 4; i < round*4+4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], errs[i] = RunPcap(cfg, bytes.NewReader(buf.Bytes()), time.Minute)
			}()
		}
		wg.Wait()
	}
	for i := range got {
		if errs[i] != nil || !reflect.DeepEqual(got[i], want) {
			t.Fatalf("call %d of 12, four at once: err %v, report %+v\nlone call %+v", i, errs[i], got[i], want)
		}
	}
}

// A tcpdump capture carries ARP, IPv6 and ICMP next to the TCP/UDP the
// engine analyses: those frames are skipped, while a frame with a corrupt
// IPv4 header still fails the run.
func TestRunPcapSkipsForeignFramesRejectsCorrupt(t *testing.T) {
	topo := topology.Internet2()
	sessions := traffic.Generate(topo, traffic.Gravity(topo), traffic.GenConfig{Sessions: 40, Seed: 5, HostsPerNode: 8})
	start := time.Unix(1_700_000_000, 0)
	var clean bytes.Buffer
	if _, err := packet.WriteSessionsPcap(packet.NewWriter(&clean), sessions, start, 0, 3); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Mode: ModePlain, Modules: StandardModules()[1:], Hasher: hashing.Hasher{Key: 4}}
	want, err := RunPcap(cfg, bytes.NewReader(clean.Bytes()), time.Minute)
	if err != nil {
		t.Fatal(err)
	}

	// Re-write the capture with an ARP and an IPv6 frame in front.
	rewrite := func(extra ...[]byte) []byte {
		var out bytes.Buffer
		w := packet.NewWriter(&out)
		for _, f := range extra {
			if err := w.WritePacket(start, f); err != nil {
				t.Fatal(err)
			}
		}
		r := packet.NewReader(bytes.NewReader(clean.Bytes()))
		for {
			ts, frame, err := r.ReadPacket()
			if err == io.EOF {
				return out.Bytes()
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := w.WritePacket(ts, frame); err != nil {
				t.Fatal(err)
			}
		}
	}
	foreign := func(etherType uint16) []byte {
		f := make([]byte, 60)
		f[12], f[13] = byte(etherType>>8), byte(etherType)
		return f
	}
	got, err := RunPcap(cfg, bytes.NewReader(rewrite(foreign(0x0806), foreign(0x86dd))), time.Minute)
	if err != nil {
		t.Fatalf("capture with ARP and IPv6 frames rejected: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("foreign frames changed the report: %+v, want %+v", got, want)
	}

	truncated := foreign(packet.EtherTypeIPv4)[:packet.EthernetHeaderLen+10]
	if _, err := RunPcap(cfg, bytes.NewReader(rewrite(truncated)), time.Minute); err == nil {
		t.Fatal("capture with a truncated IPv4 frame accepted")
	}
}

func TestConnLogEquivalence(t *testing.T) {
	// The paper's log-based equivalence check, made mechanical: the merged
	// conn logs of every coordinated node must equal a standalone
	// instance's log record-for-record.
	topo := topology.Internet2()
	tm := traffic.Gravity(topo)
	sessions := traffic.Generate(topo, tm, traffic.GenConfig{Sessions: 3000, Seed: 41})
	mods := StandardModules()[1:]
	em, err := NewEmulation(topo, mods, sessions, core.UniformCaps(topo.N(), 1e9, 1e12))
	if err != nil {
		t.Fatal(err)
	}
	var nodeLogs []*ConnLog
	for j := 0; j < topo.N(); j++ {
		_, l := RunWithLog(Config{
			Mode: ModeCoordEvent, Modules: mods, Decider: em.deciders[j], Node: j, Hasher: em.Hasher,
		}, em.nodeTrace(j, DeployCoordinated))
		nodeLogs = append(nodeLogs, l)
	}
	merged := Merge(nodeLogs...)

	_, standalone := RunWithLog(Config{Mode: ModePlain, Modules: mods, Hasher: em.Hasher}, sessions)
	ok, diff := LogEquivalent(merged, standalone)
	if !ok {
		t.Fatalf("coordinated and standalone conn logs diverge: %s", diff)
	}
	if len(standalone.Records) == 0 {
		t.Fatal("empty logs make the check vacuous")
	}
}

func TestConnLogTSV(t *testing.T) {
	sessions := mixedTrace(t, 50)
	_, l := RunWithLog(Config{Mode: ModePlain, Modules: StandardModules()[1:], Hasher: hashing.Hasher{Key: 2}}, sessions)
	var buf bytes.Buffer
	if err := l.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "#fields\t") {
		t.Fatalf("missing header: %q", out[:40])
	}
	if strings.Count(out, "\n") != len(l.Records)+1 {
		t.Fatalf("line count %d, want %d", strings.Count(out, "\n"), len(l.Records)+1)
	}
}

func TestLogEquivalentDetectsDivergence(t *testing.T) {
	a := &ConnLog{Records: []ConnRecord{{Module: "http", Tuple: "x", Packets: 3}}}
	b := &ConnLog{Records: []ConnRecord{{Module: "http", Tuple: "x", Packets: 4}}}
	if ok, _ := LogEquivalent(a, b); ok {
		t.Fatal("divergent logs reported equivalent")
	}
	c := &ConnLog{}
	if ok, _ := LogEquivalent(a, c); ok {
		t.Fatal("different lengths reported equivalent")
	}
}

// The cost model's bit-exactness rests on integer-valued increments, so a
// fractional per-packet or per-connection cost is refused when the module
// table is compiled rather than allowed to perturb a report's last ULP.
// A module set is one mask word: Run panics on 65 modules, as on a
// fractional cost, and takes 64.
func TestWideModuleSetRejected(t *testing.T) {
	Run(Config{Mode: ModeCoordEvent, Modules: ModuleSubset(65)[1:]}, nil)
	defer func() {
		if recover() == nil {
			t.Error("a 65-module set was accepted")
		}
	}()
	Run(Config{Mode: ModeCoordEvent, Modules: ModuleSubset(66)[1:]}, nil)
}

func TestFractionalCostsRejected(t *testing.T) {
	for _, mutate := range []func(*ModuleSpec){
		func(m *ModuleSpec) { m.EventOpsPerPkt = 12.5 },
		func(m *ModuleSpec) { m.StateBytes = 0.1 },
	} {
		m := moduleByName(t, "http")
		mutate(&m)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("module %+v accepted", m)
				}
			}()
			Run(Config{Mode: ModePlain, Modules: []ModuleSpec{m}}, nil)
		}()
	}
}
