package bro

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync/atomic"

	"nwdeploy/internal/core"
	"nwdeploy/internal/hashing"
	"nwdeploy/internal/obs"
	"nwdeploy/internal/trace"
	"nwdeploy/internal/traffic"
)

// Cost-model constants, in abstract CPU units and bytes. They are
// calibrated so that the standalone microbenchmarks reproduce the relative
// overheads of the paper's Figure 5 (see DESIGN.md): per-packet event
// engine work dominates; the policy interpreter costs an order of magnitude
// more per operation; computing and storing the connection-record hashes
// adds a small per-connection cost and ~6% memory.
const (
	// pktCaptureCost is libpcap capture plus event dispatch per packet;
	// paid for every packet a node observes, analyzed or not.
	pktCaptureCost = 10
	// connPktCost is per-packet connection processing (reassembly, state
	// updates) once a connection record exists.
	connPktCost = 20
	// connSetupCost is connection-record creation.
	connSetupCost = 100
	// hashPerConnCost is computing the hash combinations (session, flow,
	// source, destination) once per connection and storing them in the
	// record — the prototype's extension to the connection record.
	hashPerConnCost = 18
	// eventCheckCost is one compiled in-event-engine manifest range check.
	eventCheckCost = 2
	// policyOpCost is one interpreted policy-script operation.
	policyOpCost = 10
	// connRecordBytes is the baseline connection-record size.
	connRecordBytes = 400
	// hashFieldBytes is the record growth from carrying the hash fields.
	hashFieldBytes = 24
	// tableEntryBytes is one policy-table entry (set member or counter).
	tableEntryBytes = 40
)

// ManifestDecider supplies the Figure 3 manifest decision: every class's
// verdict for a session as one bit mask (bit c = class c analyzes the
// session), the session's unit keys and selection hashes computed once
// instead of once per module. internal/control.Decider implements it; the
// indirection lets a cluster node drive the engine from a fetched wire
// manifest without importing the planner. The second result is always
// true, and the engine reads only the mask. The engine ANDs the word with
// its own per-module match mask — a manifest whose class filters have
// gone stale against the module set can narrow a module's traffic, never
// widen it.
//
// Run calls DecideMask for the sessions ahead on a second goroutine while
// the engine analyzes earlier ones, and possibly from both at once:
// DecideMask may be called concurrently and must only read — the
// decider's state and the session.
type ManifestDecider interface {
	DecideMask(s *traffic.Session) (mask uint64, ok bool)
}

// Mode selects the engine variant being benchmarked.
type Mode int

const (
	// ModePlain is unmodified Bro: no coordination machinery at all.
	ModePlain Mode = iota
	// ModeCoordPolicy is the prototype with every coordination check
	// delayed to the policy engine (the paper's implementation
	// alternative 1).
	ModeCoordPolicy
	// ModeCoordEvent is the prototype with checks placed as early as each
	// module permits (alternative 2, the configuration the paper adopts).
	ModeCoordEvent
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModePlain:
		return "plain"
	case ModeCoordPolicy:
		return "coord-policy"
	case ModeCoordEvent:
		return "coord-event"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Config configures one engine instance (one Bro process on one node).
type Config struct {
	Mode    Mode
	Modules []ModuleSpec
	// Node labels the report.
	Node int
	// Decider supplies the Figure 3 manifest decision: the data path a
	// node runs from its wire manifest alone (see internal/control.Decider),
	// with no access to the planner's objects, and with whatever its
	// governor shed already subtracted. Class indices must align with
	// Modules. A nil Decider means a standalone instance whose manifest
	// covers all traffic (the Figure 5 microbenchmark setup: "the sampling
	// manifests ... are configured to specify that this standalone node
	// needs to process all the traffic").
	Decider ManifestDecider
	// Hasher supplies the hash values policy scripts read; it carries the
	// same key as the Decider's manifest.
	Hasher hashing.Hasher
	// FineGrained enables the Section 2.5 extension: modules marked
	// FirstPacketOnly subscribe to a first-packet event instead of full
	// connection records, so a node whose manifests select only such
	// modules for a session skips connection tracking for it entirely —
	// removing the duplicated baseline processing the paper identifies as
	// the remaining overhead of the coordinated deployment.
	FineGrained bool
	// Workers is ignored: a run's analysis is serial (see Run), and
	// parallelism lives across per-node engines (Emulation.Workers,
	// cluster). The field remains only because cmd/perf still sets it.
	Workers int
	// Metrics, when non-nil, receives engine observability: per-module
	// analyzed packets and bytes, policy-table sizes, session/connection/
	// alert totals, and the run's wall time. Aggregates are recorded when a
	// run finishes, never inside the per-session loop, and the registry is
	// write-only, so reports are bit-identical with or without it (nil is
	// the no-op default; see internal/obs).
	Metrics *obs.Registry
	// Trace, when live, receives one engine_run event per completed run
	// with the report's aggregates (the zero Span is the no-op default; see
	// internal/trace).
	Trace trace.Span
}

// Report is the resource accounting of one engine run: the analogue of the
// paper's atop-derived CPU (utilization x time) and maximum-resident-memory
// measurements, in deterministic cost units.
type Report struct {
	Node         int
	CPUUnits     float64
	MemBytes     float64
	Conns        int // connections with created state
	Observed     int // sessions seen on the wire
	Alerts       int
	PerModuleCPU map[string]float64
}

// engine is the mutable state of one run. It holds no pointer to itself and
// hands none out, so Run keeps it, signature table included, on its stack:
// what a Run allocates is the compiled table's few arrays and the report's map.
type engine struct {
	cfg       Config
	tab       moduleTable
	rep       Report
	onAnalyze func(mi int, s *traffic.Session)

	// modCPU is per-module CPU, indexed like Config.Modules and folded into
	// Report.PerModuleCPU by name in finish; regs is the compiled handlers'
	// shared register file.
	modCPU, regs []float64

	// pass is the current session's analyzing modules (see moduleTable);
	// touched is the modules charged: those that get a PerModuleCPU entry,
	// even a zero one.
	pass, touched uint64
	// sessionCPU and connMem are this mode's constant charges per observed
	// session and per created connection record.
	sessionCPU, connMem float64
	sigs                sigTable

	// verdicts, when non-nil, holds the current block's DecideMask words,
	// decided ahead; vi is the current session's index in it. With nil the
	// engine asks the Decider for each session as it comes.
	verdicts *aheadSlot
	vi       int

	// modPkts/modBytes are analyzed packets and bytes per module, filled by
	// finish and allocated only when cfg.Metrics is live.
	modPkts  []float64
	modBytes []float64
}

// Run processes the session trace through one engine instance and returns
// its resource report. Sessions are processed in pseudo-realtime order as
// in the paper's emulation; the cost model is deterministic so repeated
// runs agree exactly. When a Run with a Decider and more than one block
// of sessions is the only Run in progress and a second core exists, a
// helper goroutine computes the Figure 3 verdicts of the blocks ahead
// while the engine analyzes the current one (see aheadRing); the analysis
// itself stays serial, so the report is the same either way.
func Run(cfg Config, sessions []traffic.Session) Report {
	return runInternal(cfg, sessions, nil)
}

// runInternal is Run with an optional callback invoked for every (module,
// session) analysis performed; the tests' RunWithLog uses it to build conn
// logs.
func runInternal(cfg Config, sessions []traffic.Session, onAnalyze func(int, *traffic.Session)) Report {
	sp := cfg.Metrics.StartSpan("bro.run_ns")
	defer sp.End()
	var e engine
	e.init(cfg, onAnalyze)
	sole := engines.Add(1) == 1
	defer engines.Add(-1)
	if sole && e.tab.enforced && len(sessions) > aheadBlock && runtime.GOMAXPROCS(0) > 1 {
		e.runAhead(sessions, &soleRing)
	} else {
		for i := range sessions {
			e.processSession(&sessions[i])
		}
	}
	return e.finish()
}

// runAhead is Run's session loop with the decisions made ahead on r's
// helper. The engine claims each block it reaches that the helper has not
// claimed and decides it inline; it analyzes any other block from the
// helper's verdict words.
func (e *engine) runAhead(sessions []traffic.Session, r *aheadRing) {
	r.start(e.cfg.Decider, sessions)
	defer r.join()
	for b := int64(0); b < r.blocks; b++ {
		lo := int(b) * aheadBlock
		blk := sessions[lo:min(lo+aheadBlock, len(sessions))]
		if r.cursor.CompareAndSwap(b, b+1) {
			for i := range blk {
				e.processSession(&blk[i])
			}
		} else if v := r.wait(b); v != nil {
			e.verdicts = v
			for i := range blk {
				e.vi = i
				e.processSession(&blk[i])
			}
			e.verdicts = nil
		} else {
			// The helper's decider panicked in this block. Deciding it
			// inline raises that panic here, on the caller's goroutine,
			// at the session where the serial loop raises it and after any
			// fault the serial loop raises first.
			for i := range blk {
				e.processSession(&blk[i])
			}
			panic(r.panicVal) // a decider that panics on one goroutine only
		}
		r.done.Store(b + 1)
	}
}

// Deciding ahead. A session's Figure 3 verdict is a pure function of its
// headers and the manifest (the check runs before any session state
// exists, Section 2.3), so it can be computed before the engine reaches
// the session. Run walks its trace in blocks of aheadBlock sessions; one
// helper goroutine claims the blocks ahead through an atomic cursor and
// writes their DecideMask words into a ring of aheadDepth slots. The
// engine decides inline any block the helper has not claimed yet. Both
// sides wait by spinning with runtime.Gosched, never by parking: a park
// and wake per block costs more than deciding the block.
//
// The helper wants a core of its own, so only a Run that is the process's
// sole engine starts one, and the helper stops claiming once another Run
// begins: an engine fan-out (Emulation, the cluster's data phase) already
// keeps the cores busy, and there every engine decides inline, as with
// GOMAXPROCS 1.
const (
	aheadBlock = 1024 // sessions per block; a multiple of 64
	aheadDepth = 4    // blocks the helper may be ahead of the engine
)

// engines counts the Runs in progress in the process.
var engines atomic.Int32

// soleRing is the ring of the sole Run. A Run uses it only when its own
// start took engines from 0 to 1, and joins its helper before it counts
// itself out, so no two Runs hold it at once.
var soleRing aheadRing

// aheadSlot holds one block's verdicts: DecideMask's word per session.
type aheadSlot [aheadBlock]uint64

// aheadRing is one Run's helper state; the helper is joined before the
// Run returns, so the ring is reused from Run to Run.
type aheadRing struct {
	dec      ManifestDecider
	sessions []traffic.Session
	blocks   int64
	decide   func() // r.decideAhead, bound once so the go statement allocates nothing
	panicVal any    // the helper's recovered panic, read once exited is set

	// cursor is the next unclaimed block; done counts the blocks the engine
	// has finished, so slot b%aheadDepth is free once done > b-aheadDepth;
	// written is b+1 once the helper has written block b's verdicts. The
	// helper claims blocks in ascending order and finishes each before it
	// claims the next, so a block it claimed is written once written > b.
	cursor  atomic.Int64
	done    atomic.Int64
	written atomic.Int64
	stop    atomic.Bool // set by the engine when its loop ends, normally or not
	exited  atomic.Bool // set by the helper as it returns

	slots [aheadDepth]aheadSlot
}

// start resets the ring for the trace and starts its helper.
func (r *aheadRing) start(dec ManifestDecider, sessions []traffic.Session) {
	if r.decide == nil {
		r.decide = r.decideAhead
	}
	r.dec, r.sessions = dec, sessions
	r.blocks = int64((len(sessions) + aheadBlock - 1) / aheadBlock)
	r.cursor.Store(0)
	r.done.Store(0)
	r.written.Store(0)
	r.stop.Store(false)
	r.exited.Store(false)
	go r.decide()
}

// decideAhead is the helper: it claims the next block while its slot is
// free, writes the block's verdicts and publishes them, until the trace
// ends, the engine stops it or another Run starts. A panic in the decider
// is recovered here; the engine decides that block again inline (runAhead).
func (r *aheadRing) decideAhead() {
	defer func() {
		r.panicVal = recover()
		r.exited.Store(true)
	}()
	for !r.stop.Load() && engines.Load() <= 1 {
		b := r.cursor.Load()
		if b >= r.blocks {
			return
		}
		if b-r.done.Load() >= aheadDepth {
			runtime.Gosched() // the ring is full
			continue
		}
		if !r.cursor.CompareAndSwap(b, b+1) {
			continue // the engine took it
		}
		v := &r.slots[b%aheadDepth]
		lo := int(b) * aheadBlock
		blk := r.sessions[lo:min(lo+aheadBlock, len(r.sessions))]
		for i := range blk {
			v[i], _ = r.dec.DecideMask(&blk[i])
		}
		r.written.Store(b + 1)
	}
}

// wait returns the verdicts of block b, which the helper claimed, once they
// are written, or nil if the helper's decider panicked in it: the helper
// finishes every block it claims unless it panics.
func (r *aheadRing) wait(b int64) *aheadSlot {
	for r.written.Load() <= b {
		if r.exited.Load() && r.written.Load() <= b {
			return nil
		}
		runtime.Gosched()
	}
	return &r.slots[b%aheadDepth]
}

// join stops the helper and waits until it has returned. runAhead defers
// it, so the helper is joined also when the engine panics part-way
// through.
func (r *aheadRing) join() {
	r.stop.Store(true)
	for !r.exited.Load() {
		runtime.Gosched()
	}
	r.dec, r.sessions, r.panicVal = nil, nil, nil
}

// init compiles the module table and sizes the run's dense state.
func (e *engine) init(cfg Config, onAnalyze func(int, *traffic.Session)) {
	e.cfg, e.onAnalyze = cfg, onAnalyze
	e.rep.Node = cfg.Node
	t := &e.tab
	t.compile(&e.cfg)
	L := len(cfg.Modules)
	floats := make([]float64, L+t.regs)
	e.modCPU, e.regs = floats[:L:L], floats[L:]
	e.connMem = connRecordBytes
	if t.coordinated {
		// The prototype computes the hash combinations once per connection
		// and carries them in the connection record.
		e.sessionCPU = hashPerConnCost
		e.connMem += hashFieldBytes
	}
	if cfg.Metrics != nil {
		e.modPkts = make([]float64, L)
		e.modBytes = make([]float64, L)
	}
}

// tableBytes is the policy-table footprint of module mi.
func (e *engine) tableBytes(mi int) float64 {
	if h := e.tab.mods[mi].handler; h >= 0 {
		return e.tab.handlers[h].tbl.memBytes()
	}
	return 0
}

// finish charges the run's signatures, folds the dense per-module CPU and
// the policy-table footprints into the report, records the run's aggregates
// to the metrics registry and the flight recorder, and returns the report.
func (e *engine) finish() Report {
	e.charge()
	e.rep.PerModuleCPU = make(map[string]float64, len(e.modCPU))
	for mi, c := range e.modCPU {
		if e.touched>>uint(mi)&1 != 0 {
			e.rep.PerModuleCPU[e.cfg.Modules[mi].Name] += c
		}
		e.rep.MemBytes += e.tableBytes(mi)
	}
	e.recordMetrics()
	e.cfg.Trace.Event(trace.EvEngineRun,
		trace.Int("alerts", e.rep.Alerts), trace.Int("conns", e.rep.Conns),
		trace.F64("cpu", e.rep.CPUUnits))
	return e.rep
}

// recordMetrics publishes the finished run's aggregates. The float totals
// are rounded once, from the finished report.
func (e *engine) recordMetrics() {
	m := e.cfg.Metrics
	if m == nil {
		return
	}
	m.Add("bro.sessions_observed", int64(e.rep.Observed))
	m.Add("bro.conns", int64(e.rep.Conns))
	m.Add("bro.alerts", int64(e.rep.Alerts))
	m.Add("bro.cpu_units", int64(math.Round(e.rep.CPUUnits)))
	m.Add("bro.mem_bytes", int64(math.Round(e.rep.MemBytes)))
	for mi := range e.cfg.Modules {
		name := e.cfg.Modules[mi].Name
		m.Add("bro.module_pkts."+name, int64(e.modPkts[mi]))
		m.Add("bro.module_bytes."+name, int64(e.modBytes[mi]))
		if tb := e.tableBytes(mi); tb > 0 {
			m.Add("bro.module_table_bytes."+name, int64(tb))
			m.Observe("bro.table_bytes", int64(tb))
		}
	}
}

// decide sets e.pass to the Figure 3 manifest decision for every module
// and reports whether any passed: the Decider's word, decided ahead or
// asked for now, ANDed with the modules' own match mask, or the match mask
// alone under the standalone all-traffic default.
func (e *engine) decide(s *traffic.Session, match uint64) bool {
	e.pass = match
	if e.tab.enforced {
		var m uint64
		if v := e.verdicts; v != nil { // decided ahead
			m = v[e.vi]
		} else {
			m, _ = e.cfg.Decider.DecideMask(s)
		}
		e.pass &= m
	}
	return e.pass != 0
}

// processSession accounts one observed session: its capture, its count in
// its signature's record (see charge) and its analyzers' handlers.
func (e *engine) processSession(s *traffic.Session) {
	t := &e.tab
	e.rep.Observed++
	// Every observed packet pays capture cost regardless of analysis: a
	// node on the path cannot avoid seeing the traffic (Section 2.5's
	// duplicated baseline tracking).
	e.rep.CPUUnits += float64(s.Packets)*pktCaptureCost + e.sessionCPU

	match, sub := t.masks(&s.Tuple)
	anyPass := e.decide(s, match)

	// The prototype's basic-processing optimization: skip creating session
	// state for traffic entirely outside this instance's manifests ("we
	// add a check in the basic connection processing step to avoid
	// creating session state for traffic that falls outside the sampling
	// manifest for this Bro instance"). Unmodified Bro has no such check
	// and always creates connection state; a standalone coordinated
	// instance's manifest covers all traffic, so nothing is droppable there
	// either.
	if t.enforced && !anyPass {
		return
	}

	// Fine-grained coordination (Section 2.5): when every module this node
	// analyzes the session for needs only its first packet, serve them
	// from a first-packet event and skip connection tracking entirely. Its
	// signature's subscribed row is empty, which a connection's is only
	// beside an empty analyzed row.
	first := e.cfg.FineGrained && t.enforced && e.firstPacketOnly()
	if first {
		sub = 0
	}
	r := e.sigs.find(sub, e.pass)
	r.n++
	r.pkts += uint64(s.Packets)
	r.bytes += uint64(s.Bytes)

	word := e.pass
	if e.onAnalyze == nil {
		word &= t.effects
	}
	for ; word != 0; word &= word - 1 {
		mi := bits.TrailingZeros64(word)
		if e.onAnalyze != nil {
			e.onAnalyze(mi, s)
		}
		m, n := &t.mods[mi], 1 // a first-packet event runs it once
		if !first {
			n = int(m.events)
		}
		if m.handler >= 0 && n > 0 {
			e.runHandler(m, s, n)
		}
	}
}

// charge folds the signature totals into the report and per-module CPU:
// what processSession charged each session module by module, summed per
// signature — bit for bit, as every charge is an integer (compile rejects
// fractional costs) and sums of integers below 2⁵³ are exact in any order.
func (e *engine) charge() {
	t := &e.tab
	recs := e.sigs.recs()
	for i := range recs {
		r := &recs[i]
		n, pkts, bytes := float64(r.n), float64(int64(r.pkts)), float64(int64(r.bytes))
		if n == 0 {
			continue
		}
		sub, pass := r.sub, r.pass
		first := sub == 0 && pass != 0
		// A connection: its record, per-packet processing, each subscribed
		// module's check and each analyzed one's work, handlers and state. A
		// first-packet event: one classification, then per analyzed module
		// its check and one handler run.
		cpu, mem, served := n*connSetupCost+pkts*connPktCost, n*e.connMem, pkts
		if first {
			cpu, mem, served, sub = n*connPktCost, 0, n, pass
		} else {
			e.rep.Conns += int(n)
		}
		e.touched |= sub
		for word := sub; word != 0; word &= word - 1 {
			mi := bits.TrailingZeros64(word)
			m := &t.mods[mi]
			analyzed := pass>>uint(mi)&1 != 0
			c := n * m.checkCost
			switch {
			case first:
				c = n * (checkCost + m.scriptCost)
			case analyzed:
				c += m.eventOps*pkts + n*float64(m.events)*m.scriptCost
				mem += n * m.stateBytes
			}
			if analyzed && e.modPkts != nil {
				e.modPkts[mi] += served
				e.modBytes[mi] += bytes
			}
			e.modCPU[mi] += c
			cpu += c
		}
		e.rep.CPUUnits += cpu
		e.rep.MemBytes += mem
	}
}

// sigTable holds a run's charged sessions by signature — the session's
// subscribed and analyzed rows — in a table of records probed linearly
// from a hash of the two words. It starts in inline, inside the engine and
// so on its Run's stack, and moves to the heap when a run has more
// signatures than inline holds at ¾ load.
type sigTable struct {
	slots, used int // records, a power of two; held
	shift       uint8
	heap        []sigRec
	inline      [64]sigRec // BenchmarkRunDecider's run has 25 signatures
}

// sigRec is one signature's record: its rows, then its sessions, packets
// and bytes (no sessions: an empty record).
type sigRec struct{ sub, pass, n, pkts, bytes uint64 }

func (t *sigTable) recs() []sigRec {
	if t.heap != nil {
		return t.heap
	}
	return t.inline[:t.slots]
}

// find returns the record of signature (sub, pass), claiming an empty one
// for it — after growing the table, when the claim would pass ¾ load.
func (t *sigTable) find(sub, pass uint64) *sigRec {
	h := (sub*hashMul ^ pass) * hashMul
	for {
		recs := t.recs()
		for i := int(h >> t.shift); t.slots > 0; i = (i + 1) & (t.slots - 1) {
			r := &recs[i]
			if r.n == 0 {
				if 4*(t.used+1) > 3*t.slots {
					break
				}
				t.used++
				r.sub, r.pass = sub, pass
				return r
			}
			if r.sub == sub && r.pass == pass {
				return r
			}
		}
		t.grow()
	}
}

// grow sizes the table — first inline, then heap arrays of twice the
// records — and moves the records.
func (t *sigTable) grow() {
	old := t.recs()
	if t.slots == 0 {
		t.slots = len(t.inline)
	} else {
		t.slots *= 2
		t.heap = make([]sigRec, t.slots)
	}
	t.shift = uint8(64 - bits.TrailingZeros(uint(t.slots)))
	t.used = 0
	for i := range old {
		if r := &old[i]; r.n != 0 {
			*t.find(r.sub, r.pass) = *r
		}
	}
}

// firstPacketOnly reports whether every passing module is first-packet-only.
func (e *engine) firstPacketOnly() bool { return e.pass&^e.tab.firstPkt == 0 }

// runHandler runs n invocations of module m's policy handler, which has
// effects, on one analyzed connection; their cost is charged by signature.
// Foldable handlers execute once and have their alerts multiplied.
func (e *engine) runHandler(m *compiledModule, s *traffic.Session, n int) {
	h := &e.tab.handlers[m.handler]
	var hv float64
	if h.loadsHash {
		hv = core.Class{Agg: h.agg}.HashOf(e.cfg.Hasher, s.Tuple)
	}
	if h.foldable {
		e.rep.Alerts += n * h.exec(e.regs, s, hv, true, h.tbl)
	} else {
		for k := 0; k < n; k++ {
			e.rep.Alerts += h.exec(e.regs, s, hv, true, h.tbl)
		}
	}
}

// Overhead compares a coordinated run against a plain run on the same
// trace: the Figure 5 metrics.
type Overhead struct {
	Module    string
	CPUPlain  float64
	CPUCoord  float64
	MemPlain  float64
	MemCoord  float64
	CPURatio  float64 // (coord - plain) / plain
	MemRatio  float64
	CheckMode Mode
}

// MeasureOverhead runs one module in isolation (plus baseline connection
// processing) on the trace in plain and coordinated form and reports the
// overhead ratios — the paper's standalone microbenchmark. The baseline
// "module" measures pure connection processing.
func MeasureOverhead(spec ModuleSpec, mode Mode, sessions []traffic.Session) Overhead {
	mods := []ModuleSpec{spec}
	plain := Run(Config{Mode: ModePlain, Modules: mods, Hasher: hashing.Hasher{Key: 1}}, sessions)
	coord := Run(Config{Mode: mode, Modules: mods, Hasher: hashing.Hasher{Key: 1}}, sessions)
	o := Overhead{
		Module:    spec.Name,
		CPUPlain:  plain.CPUUnits,
		CPUCoord:  coord.CPUUnits,
		MemPlain:  plain.MemBytes,
		MemCoord:  coord.MemBytes,
		CheckMode: mode,
	}
	if plain.CPUUnits > 0 {
		o.CPURatio = (coord.CPUUnits - plain.CPUUnits) / plain.CPUUnits
	}
	if plain.MemBytes > 0 {
		o.MemRatio = (coord.MemBytes - plain.MemBytes) / plain.MemBytes
	}
	return o
}
