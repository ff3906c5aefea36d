package bro

import (
	"fmt"
	"math"

	"nwdeploy/internal/core"
	"nwdeploy/internal/hashing"
)

// compiledModule is what the per-session loop needs of one ModuleSpec,
// resolved once per Run: the loop walks these by index and never touches
// Config.Modules (a ModuleSpec is ~130 bytes; ranging it by value was a
// quarter of the old loop's time).
type compiledModule struct {
	// checkCost is the coordination check's charge per subscribed
	// connection: nothing for plain mode or a module with no work to gate,
	// eventCheckCost at the event stage, one interpreted check per policy
	// event at the policy stage.
	checkCost  float64
	eventOps   float64
	stateBytes float64 // 0 for source/destination aggregation: that state is the policy tables
	// scriptCost is one handler invocation's charge; events is how many an
	// analyzed connection gets: ceil(PolicyEventsPerConn), 0 without a script.
	scriptCost float64
	events     int32
	// handler indexes moduleTable.handlers, or is -1 when the script is
	// pure (or absent): its invocations are their cost and nothing runs.
	handler int32
}

// handler is the executable side of a module whose script has effects.
type handler struct {
	program
	agg core.Aggregation
	// tbl is the module's policy state, nil unless the program writes one —
	// the one mutable thing in a table; every Run compiles its own.
	tbl *moduleTables
}

// moduleTable is a Config's module set compiled for the session loop. The
// traffic specifications become bit masks over modules (bit mi%64 of word
// mi/64 is module mi): which modules match a session, and which are
// subscribed to it, is a few ANDs and ORs of rows selected by the session's
// protocol and server port.
type moduleTable struct {
	mods     []compiledModule
	handlers []handler
	regs     int // register file the handlers need
	words    int // mask words per row

	// bits backs every mask row, words entries each. The fixed rows come
	// first, then keyed rows, one per distinct transport (portKeys +
	// protocol) and distinct server port: the key in one word, the mask
	// after it.
	bits  []uint64
	keyed int

	coordinated bool // Mode != ModePlain
	// enforced: a coordinated instance with a real (partial) manifest — a
	// Decider — rather than the standalone all-traffic default.
	enforced bool
}

// portKeys is the first key above every server port: transport p's row is
// keyed portKeys+p.
const portKeys = 1 << 16

// The fixed rows, in row units from the start of bits.
const (
	rowNone     = iota // no module: stands in for a key no row has
	rowAnyProto        // modules with no transport restriction
	rowPortless        // modules with no port list
	rowSubAll          // SubscribesAll modules
	rowFirstPkt        // FirstPacketOnly modules
	fixedRows
)

// compile builds the table. The cost model is exact — reports are
// bit-identical however increments are batched or ordered — only while
// every increment is integer-valued, so a fractional per-packet or
// per-connection cost is rejected here, once, rather than silently
// perturbing the last ULP of a report.
func (t *moduleTable) compile(cfg *Config) {
	mods := cfg.Modules
	W := (len(mods) + 63) / 64
	t.words = W
	t.coordinated = cfg.Mode != ModePlain
	t.enforced = t.coordinated && cfg.Decider != nil
	t.mods = make([]compiledModule, len(mods))

	// Room for eight keyed rows — two transports and the standard set's five
	// ports fit; a busier module set grows the array (offsets, not slices,
	// address the rows, so growth is harmless).
	t.bits = make([]uint64, fixedRows*W, fixedRows*W+8*(1+W))

	// Analyze every script first: only impure programs ever execute, so only
	// they get a handler and code, and one backing array of each then serves
	// the whole module set.
	codeLen, nHandlers := 0, 0
	for mi := range mods {
		m := &mods[mi]
		if !integral(m.EventOpsPerPkt) || !integral(m.StateBytes) {
			panic(fmt.Sprintf("bro: module %q: EventOpsPerPkt %v and StateBytes %v must be integer-valued",
				m.Name, m.EventOpsPerPkt, m.StateBytes))
		}
		p := compileScript(m.PolicyScript, nil)
		t.mods[mi].scriptCost, t.mods[mi].handler = p.cost, -1
		if !p.pure {
			t.mods[mi].handler = 0 // assigned below
			codeLen += int(p.ops)
			nHandlers++
		}

		w, bit := mi>>6, uint64(1)<<uint(mi&63)
		if m.Transport == 0 {
			t.bits[rowAnyProto*W+w] |= bit
		} else {
			t.bits[t.keyedRow(portKeys+uint64(m.Transport))+w] |= bit
		}
		if len(m.Ports) == 0 {
			t.bits[rowPortless*W+w] |= bit
		}
		for _, p := range m.Ports {
			t.bits[t.keyedRow(uint64(p))+w] |= bit
		}
		if m.SubscribesAll {
			t.bits[rowSubAll*W+w] |= bit
		}
		if m.FirstPacketOnly {
			t.bits[rowFirstPkt*W+w] |= bit
		}
	}

	var code []inst
	if nHandlers > 0 {
		code = make([]inst, 0, codeLen)
		t.handlers = make([]handler, 0, nHandlers)
	}
	for mi := range mods {
		m := &mods[mi]
		cm := &t.mods[mi]
		if cm.handler >= 0 {
			h := handler{program: compileScript(m.PolicyScript, &code), agg: m.Agg}
			if h.mutates {
				h.tbl = &moduleTables{}
			}
			if int(h.regs) > t.regs {
				t.regs = int(h.regs)
			}
			cm.handler = int32(len(t.handlers))
			t.handlers = append(t.handlers, h)
		}
		n := m.PolicyEventsPerConn
		if len(m.PolicyScript) > 0 && n > 0 {
			cm.events = int32(math.Ceil(n))
		}
		cm.eventOps = m.EventOpsPerPkt
		if m.Agg != core.BySource && m.Agg != core.ByDestination {
			cm.stateBytes = m.StateBytes
		}
		// A module with no analysis work (the baseline pseudo-module) has
		// nothing to gate, so it carries no coordination check.
		if t.coordinated && (m.EventOpsPerPkt > 0 || len(m.PolicyScript) > 0) {
			switch {
			case cfg.Mode != ModeCoordPolicy && m.EarliestCheck == StageEvent:
				// One compiled check at module initialization.
				cm.checkCost = eventCheckCost
			case n < 1:
				cm.checkCost = checkCost
			case n >= 1:
				// The interpreted check runs in every policy event handler
				// invocation the module receives for this connection.
				cm.checkCost = math.Ceil(n) * checkCost
			}
		}
	}
}

func integral(v float64) bool { return v == math.Trunc(v) && !math.IsInf(v, 0) }

// keyedRow returns the mask offset of key's row, appending a zeroed row to
// bits on first use.
func (t *moduleTable) keyedRow(key uint64) int {
	if off := t.findRow(key); off != rowNone*t.words {
		return off
	}
	t.bits = append(t.bits, key)
	for i := 0; i < t.words; i++ {
		t.bits = append(t.bits, 0)
	}
	t.keyed++
	return len(t.bits) - t.words
}

// findRow returns the mask offset of key's row, or of the empty rowNone.
func (t *moduleTable) findRow(key uint64) int {
	for off, n := fixedRows*t.words, t.keyed; n > 0; off, n = off+1+t.words, n-1 {
		if t.bits[off] == key {
			return off + 1
		}
	}
	return rowNone * t.words
}

// masks fills match (ModuleSpec.MatchesSession per module) and sub
// (ModuleSpec.SubscribedTo) for a session's tuple.
func (t *moduleTable) masks(tuple *hashing.FiveTuple, match, sub []uint64) {
	proto := t.findRow(portKeys + uint64(tuple.Proto))
	port := t.findRow(uint64(tuple.DstPort))
	W := t.words
	for w := range match {
		transport := t.bits[rowAnyProto*W+w] | t.bits[proto+w]
		ported := t.bits[rowPortless*W+w] | t.bits[port+w]
		match[w] = transport & ported
		sub[w] = transport & (ported | t.bits[rowSubAll*W+w])
	}
}
