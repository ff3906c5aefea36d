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
// traffic specifications become bit masks over modules (bit mi is module
// mi; compile admits at most 64): which modules match a session, and which
// are subscribed to it, is a few ANDs and ORs of rows selected by the
// session's protocol and server port.
type moduleTable struct {
	mods     []compiledModule
	handlers []handler
	regs     int // register file the handlers need

	// The fixed rows: modules with no transport restriction, with no port
	// list, that subscribe to all traffic, that need only the first packet,
	// and that have a handler (a script with effects).
	anyProto, portless, subAll, firstPkt, effects uint64
	// keyed holds one row per distinct transport (keyed portKeys +
	// protocol) and distinct server port. keyBits has bit key%64 set for
	// every keyed row: most ports have no row, and row answers them
	// without a scan.
	keyed   []keyedRow
	keyBits uint64

	coordinated bool // Mode != ModePlain
	// enforced: a coordinated instance with a real (partial) manifest — a
	// Decider — rather than the standalone all-traffic default.
	enforced bool
}

// keyedRow is the mask of the modules one key selects.
type keyedRow struct{ key, mask uint64 }

// portKeys is the first key above every server port: transport p's row is
// keyed portKeys+p.
const portKeys = 1 << 16

// compile builds the table. The cost model is exact — reports are
// bit-identical however increments are batched or ordered — only while
// every increment is integer-valued, so a fractional per-packet or
// per-connection cost is rejected here, once, rather than silently
// perturbing the last ULP of a report. So is a set of more than 64
// modules, which no mask word holds.
func (t *moduleTable) compile(cfg *Config) {
	mods := cfg.Modules
	if len(mods) > 64 {
		panic(fmt.Sprintf("bro: %d modules, more than the 64 a mask word holds", len(mods)))
	}
	t.coordinated = cfg.Mode != ModePlain
	t.enforced = t.coordinated && cfg.Decider != nil
	t.mods = make([]compiledModule, len(mods))

	// Room for eight keyed rows — two transports and the standard set's five
	// ports fit; a busier module set grows the slice.
	t.keyed = make([]keyedRow, 0, 8)

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
		bit := uint64(1) << uint(mi)
		p := compileScript(m.PolicyScript, nil)
		t.mods[mi].scriptCost, t.mods[mi].handler = p.cost, -1
		if !p.pure {
			t.mods[mi].handler = 0 // assigned below
			t.effects |= bit
			codeLen += int(p.ops)
			nHandlers++
		}

		if m.Transport == 0 {
			t.anyProto |= bit
		} else {
			t.addKeyed(portKeys+uint64(m.Transport), bit)
		}
		if len(m.Ports) == 0 {
			t.portless |= bit
		}
		for _, p := range m.Ports {
			t.addKeyed(uint64(p), bit)
		}
		if m.SubscribesAll {
			t.subAll |= bit
		}
		if m.FirstPacketOnly {
			t.firstPkt |= bit
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

// addKeyed adds the modules of bit to key's row, appending the row on
// first use.
func (t *moduleTable) addKeyed(key, bit uint64) {
	for i := range t.keyed {
		if t.keyed[i].key == key {
			t.keyed[i].mask |= bit
			return
		}
	}
	t.keyed = append(t.keyed, keyedRow{key, bit})
	t.keyBits |= 1 << (key & 63)
}

// row returns the mask of key's row, 0 when it has none.
func (t *moduleTable) row(key uint64) uint64 {
	if t.keyBits>>(key&63)&1 == 0 {
		return 0
	}
	for _, r := range t.keyed {
		if r.key == key {
			return r.mask
		}
	}
	return 0
}

// masks returns match (ModuleSpec.MatchesSession per module) and sub
// (ModuleSpec.SubscribedTo) for a session's tuple.
func (t *moduleTable) masks(tuple *hashing.FiveTuple) (match, sub uint64) {
	transport := t.anyProto | t.row(portKeys+uint64(tuple.Proto))
	ported := t.portless | t.row(uint64(tuple.DstPort))
	return transport & ported, transport & (ported | t.subAll)
}
