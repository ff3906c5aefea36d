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

// ManifestDecider resolves whether the node analyzes a session for a
// class. internal/control.Decider implements it; the indirection lets a
// cluster node drive the engine from a fetched wire manifest without
// importing the planner.
type ManifestDecider interface {
	ShouldAnalyze(class int, s traffic.Session) bool
}

// MaskDecider is a ManifestDecider that can return every class's verdict
// for a session as one bit mask (bit c = class c analyzes the session; ok
// false when the manifest has more than 64 classes), computing the
// session's unit keys and selection hashes once instead of once per
// module (internal/control.Decider implements it). The mask must equal
// per-class ShouldAnalyze calls bit for bit. The engine ANDs the word with
// its own per-module match mask — a manifest whose class filters have gone
// stale against the module set can narrow a module's traffic, never widen
// it.
//
// Run calls DecideMask for the sessions ahead on a second goroutine while
// the engine analyzes earlier ones, and possibly from both at once:
// DecideMask may be called concurrently, also with ShouldAnalyze, and must
// only read — the decider's state and the session.
type MaskDecider interface {
	ManifestDecider
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
	// Workers is ignored. A run's analysis is serial; only its pure
	// per-session decision runs ahead on one helper goroutine (see Run).
	// Module-lane sharding never beat the serial engine and was deleted;
	// parallelism lives one level up, across independent per-node engines
	// (Emulation.Workers, cluster). The field remains only because cmd/perf
	// still sets it.
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
// hands none out, so Run keeps it on its stack: what a Run allocates is the
// compiled table's few backing arrays and the report's map.
type engine struct {
	cfg       Config
	tab       moduleTable
	rep       Report
	onAnalyze func(mi int, s *traffic.Session)

	// modCPU is per-module CPU, indexed like Config.Modules and folded into
	// Report.PerModuleCPU by name in finish; regs is the compiled handlers'
	// shared register file.
	modCPU, regs []float64

	// Per-session mask rows (see moduleTable): match, subscribed, passed,
	// and the run-long union of every row the module walk visited — the
	// modules that get a PerModuleCPU entry, even a zero one.
	match, sub, pass, touched []uint64
	// sessionCPU and connMem are this mode's constant charges per observed
	// session and per created connection record.
	sessionCPU, connMem float64

	maskDec MaskDecider
	// verdicts, when non-nil, holds the current block's DecideMask words,
	// decided ahead; vi is the current session's index in it. With nil the
	// engine asks maskDec for each session as it comes.
	verdicts *aheadSlot
	vi       int

	// modPkts/modBytes accumulate analyzed packets and bytes per module,
	// allocated only when cfg.Metrics is live.
	modPkts  []float64
	modBytes []float64
}

// Run processes the session trace through one engine instance and returns
// its resource report. Sessions are processed in pseudo-realtime order as
// in the paper's emulation; the cost model is deterministic so repeated
// runs agree exactly. When a Run with a MaskDecider and more than one block
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
	if sole && e.tab.enforced && e.maskDec != nil && len(sessions) > aheadBlock && runtime.GOMAXPROCS(0) > 1 {
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
	r.start(e.maskDec, sessions)
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

// aheadSlot holds one block's verdicts: DecideMask's word and its ok bit
// per session.
type aheadSlot struct {
	mask [aheadBlock]uint64
	ok   [aheadBlock / 64]uint64
}

// aheadRing is one Run's helper state; the helper is joined before the
// Run returns, so the ring is reused from Run to Run.
type aheadRing struct {
	dec      MaskDecider
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
func (r *aheadRing) start(dec MaskDecider, sessions []traffic.Session) {
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
		clear(v.ok[:])
		for i := range blk {
			m, ok := r.dec.DecideMask(&blk[i])
			v.mask[i] = m
			if ok {
				v.ok[i>>6] |= 1 << uint(i&63)
			}
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
	W, L := t.words, len(cfg.Modules)
	rows := make([]uint64, 4*W)
	e.match, e.sub, e.pass, e.touched = rows[:W], rows[W:2*W], rows[2*W:3*W], rows[3*W:]
	floats := make([]float64, L+t.regs)
	e.modCPU, e.regs = floats[:L:L], floats[L:]
	e.connMem = connRecordBytes
	if t.coordinated {
		// The prototype computes the hash combinations once per connection
		// and carries them in the connection record.
		e.sessionCPU = hashPerConnCost
		e.connMem += hashFieldBytes
	}
	e.maskDec, _ = cfg.Decider.(MaskDecider)
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

// finish folds the dense per-module CPU and the policy-table footprints
// into the report, records the run's aggregates to the metrics registry
// and the flight recorder, and returns the report.
func (e *engine) finish() Report {
	e.rep.PerModuleCPU = make(map[string]float64, len(e.modCPU))
	for mi, c := range e.modCPU {
		if e.touched[mi>>6]>>uint(mi&63)&1 != 0 {
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

// decide fills e.pass with the Figure 3 manifest decision for every module
// and reports whether any passed. Whichever form the Decider answers in — a
// mask word or per-class calls — or the standalone all-traffic default, its
// verdict is ANDed with the module's own match mask.
func (e *engine) decide(s *traffic.Session) bool {
	copy(e.pass, e.match)
	if e.tab.enforced {
		e.applyManifest(s)
	}
	var any uint64
	for _, word := range e.pass {
		any |= word
	}
	return any != 0
}

// applyManifest narrows e.pass (the match mask on entry) to what the
// Decider lets through: one mask word answers for every module when the
// manifest has at most 64 classes, else each surviving bit asks for itself.
func (e *engine) applyManifest(s *traffic.Session) {
	if e.maskDec != nil {
		var m uint64
		var ok bool
		if v := e.verdicts; v != nil { // decided ahead
			m, ok = v.mask[e.vi], v.ok[e.vi>>6]>>uint(e.vi&63)&1 != 0
		} else {
			m, ok = e.maskDec.DecideMask(s)
		}
		if ok {
			if len(e.pass) > 0 {
				e.pass[0] &= m
				clear(e.pass[1:]) // a mask verdict covers at most 64 classes
			}
			return
		}
	}
	for w, word := range e.pass {
		for ; word != 0; word &= word - 1 {
			b := bits.TrailingZeros64(word)
			if !e.cfg.Decider.ShouldAnalyze(w<<6+b, *s) {
				e.pass[w] &^= 1 << uint(b)
			}
		}
	}
}

func (e *engine) processSession(s *traffic.Session) {
	t := &e.tab
	pkts := float64(s.Packets)
	e.rep.Observed++
	// Every observed packet pays capture cost regardless of analysis: a
	// node on the path cannot avoid seeing the traffic (Section 2.5's
	// duplicated baseline tracking).
	e.rep.CPUUnits += pkts*pktCaptureCost + e.sessionCPU

	t.masks(&s.Tuple, e.match, e.sub)
	anyPass := e.decide(s)

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
	// from a first-packet event and skip connection tracking entirely.
	if e.cfg.FineGrained && t.enforced && e.firstPacketOnly() {
		cpu := float64(connPktCost) // classify the first packet once
		for w, word := range e.pass {
			e.touched[w] |= word
			for ; word != 0; word &= word - 1 {
				mi := w<<6 + bits.TrailingZeros64(word)
				if e.onAnalyze != nil {
					e.onAnalyze(mi, s)
				}
				if e.modPkts != nil {
					e.modPkts[mi]++ // first-packet event: one packet served
					e.modBytes[mi] += float64(s.Bytes)
				}
				// The manifest check runs once, on the first-packet event,
				// then the handler once.
				c := checkCost
				if m := &t.mods[mi]; m.scriptCost > 0 {
					c += e.runHandler(m, s, 1)
				}
				e.modCPU[mi] += c
				cpu += c
			}
		}
		e.rep.CPUUnits += cpu
		return
	}

	// Connection-record creation and per-packet connection processing.
	cpu := connSetupCost + pkts*connPktCost
	mem := e.connMem
	e.rep.Conns++

	for w, word := range e.sub {
		e.touched[w] |= word
		pass := e.pass[w]
		for ; word != 0; word &= word - 1 {
			b := bits.TrailingZeros64(word)
			mi := w<<6 + b
			m := &t.mods[mi]
			c := m.checkCost
			if pass>>uint(b)&1 != 0 {
				if e.onAnalyze != nil {
					e.onAnalyze(mi, s)
				}
				if e.modPkts != nil {
					e.modPkts[mi] += pkts
					e.modBytes[mi] += float64(s.Bytes)
				}
				// Event-engine protocol work per packet, then the policy
				// handlers, then per-item analysis state.
				c += m.eventOps * pkts
				if m.events > 0 {
					c += e.runHandler(m, s, int(m.events))
				}
				mem += m.stateBytes
			}
			e.modCPU[mi] += c
			cpu += c
		}
	}
	e.rep.CPUUnits += cpu
	e.rep.MemBytes += mem
}

// firstPacketOnly reports whether every passing module is first-packet-only.
func (e *engine) firstPacketOnly() bool {
	fp := e.tab.bits[rowFirstPkt*e.tab.words:]
	for w, word := range e.pass {
		if word&^fp[w] != 0 {
			return false
		}
	}
	return true
}

// runHandler accounts n invocations of module m's policy handler on one
// analyzed connection and returns their cost. Pure handlers are never
// executed; foldable ones execute once and have their alerts multiplied.
func (e *engine) runHandler(m *compiledModule, s *traffic.Session, n int) float64 {
	if m.handler >= 0 {
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
	return float64(n) * m.scriptCost
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
