package bro

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"nwdeploy/internal/hashing"
	"nwdeploy/internal/traffic"
)

// This file keeps the policy interpreter the engine used before scripts were
// compiled — a stack machine with a switch per op, charging policyOpCost as
// it goes — as the test-only oracle the compiler is checked against.

// vmContext is the per-invocation environment the reference interpreter sees.
type vmContext struct {
	srcKey, dstKey float64
	port           float64
	pkts           float64
	hash           float64 // aggregation hash from the connection record
	inRange        bool    // precomputed manifest membership for OpRangeCheck
}

// refContext is the context the engine would build for a session.
func refContext(s *traffic.Session, hash float64, inRange bool) *vmContext {
	return &vmContext{
		srcKey: float64(s.Tuple.SrcIP), dstKey: float64(s.Tuple.DstIP),
		port: float64(s.Tuple.DstPort), pkts: float64(s.Packets),
		hash: hash, inRange: inRange,
	}
}

// refTables is the interpreter's policy state, kept in Go maps on purpose:
// it is the independent model the engine's flat tables are checked against,
// NaN and ±0 semantics included.
type refTables struct {
	sets     map[float64]map[float64]struct{}
	counters map[float64]float64
}

func newRefTables() *refTables {
	return &refTables{
		sets:     make(map[float64]map[float64]struct{}),
		counters: make(map[float64]float64),
	}
}

func (rt *refTables) addSet(key, member float64) float64 {
	set := rt.sets[key]
	if set == nil {
		set = make(map[float64]struct{})
		rt.sets[key] = set
	}
	set[member] = struct{}{}
	return float64(len(set))
}

func (rt *refTables) incr(key float64) float64 {
	rt.counters[key]++
	return rt.counters[key]
}

// memBytes is the charge the engine made when its tables were these maps.
func (rt *refTables) memBytes() float64 {
	n := len(rt.counters)
	for _, s := range rt.sets {
		n += len(s) + 1
	}
	return float64(n) * tableEntryBytes
}

// refVM executes policy scripts, charging policyOpCost per executed
// instruction to the bound cost counter.
type refVM struct {
	stack  []float64
	cost   *float64
	alerts *int
}

func (m *refVM) push(v float64) { m.stack = append(m.stack, v) }

func (m *refVM) pop() float64 {
	if len(m.stack) == 0 {
		panic("bro: policy script popped an empty stack")
	}
	v := m.stack[len(m.stack)-1]
	m.stack = m.stack[:len(m.stack)-1]
	return v
}

// run executes the script and returns its result value (top of stack, or 1
// when the stack is empty at return — "handler ran to completion").
func (m *refVM) run(s Script, ctx *vmContext, tbl *refTables) float64 {
	m.stack = m.stack[:0]
	for _, op := range s {
		*m.cost += policyOpCost
		switch op.Code {
		case OpLoadSrc:
			m.push(ctx.srcKey)
		case OpLoadDst:
			m.push(ctx.dstKey)
		case OpLoadPort:
			m.push(ctx.port)
		case OpLoadPkts:
			m.push(ctx.pkts)
		case OpLoadHash:
			m.push(ctx.hash)
		case OpPush:
			m.push(op.Arg)
		case OpAddSet:
			key := m.pop()
			member := m.pop()
			m.push(tbl.addSet(key, member))
		case OpIncr:
			m.push(tbl.incr(m.pop()))
		case OpGT:
			b, a := m.pop(), m.pop()
			m.push(b2f(a > b))
		case OpEQ:
			b, a := m.pop(), m.pop()
			m.push(b2f(a == b))
		case OpAlertIf:
			if m.pop() != 0 {
				*m.alerts++
			}
		case OpRangeCheck:
			m.pop() // the hash operand; membership was resolved against it
			m.push(b2f(ctx.inRange))
		case OpDrop:
			m.pop()
		case OpRet:
			if len(m.stack) == 0 {
				return 1
			}
			return m.stack[len(m.stack)-1]
		default:
			panic(fmt.Sprintf("bro: unknown opcode %d", op.Code))
		}
	}
	if len(m.stack) == 0 {
		return 1
	}
	return m.stack[len(m.stack)-1]
}

// compiledHandler drives a compiled script exactly the way the engine does
// (compile once, fold repeats when the program allows it), exposing the
// result value the engine itself discards.
type compiledHandler struct {
	p      program
	regs   []float64
	tbl    *moduleTables
	cost   float64
	alerts int
}

func newCompiledHandler(s Script) *compiledHandler {
	var code []inst
	h := &compiledHandler{p: compileScript(s, &code)}
	h.regs = make([]float64, h.p.regs)
	if h.p.mutates {
		h.tbl = &moduleTables{}
	}
	return h
}

// invoke accounts n back-to-back invocations on one connection and returns
// the last one's result.
func (h *compiledHandler) invoke(s *traffic.Session, hash float64, inRange bool, n int) float64 {
	h.cost += float64(n) * h.p.cost
	switch {
	case n == 0 || h.p.pure && h.p.result < 0:
		return 1
	case h.p.foldable:
		h.alerts += n * h.p.exec(h.regs, s, hash, inRange, h.tbl)
	default:
		for k := 0; k < n; k++ {
			h.alerts += h.p.exec(h.regs, s, hash, inRange, h.tbl)
		}
	}
	if h.p.result < 0 {
		return 1
	}
	return h.regs[h.p.result]
}

func TestVMExecution(t *testing.T) {
	s := &traffic.Session{Tuple: hashing.FiveTuple{SrcIP: 1, DstIP: 2, DstPort: 80}, Packets: 10}

	// Distinct-count: adding 3 members under one key.
	script := Script{{Code: OpLoadDst}, {Code: OpLoadSrc}, {Code: OpAddSet}, {Code: OpRet}}
	h := newCompiledHandler(script)
	if got := h.invoke(s, 0.4, true, 1); got != 1 {
		t.Fatalf("first AddSet count = %v, want 1", got)
	}
	s.Tuple.DstIP = 3
	if got := h.invoke(s, 0.4, true, 1); got != 2 {
		t.Fatalf("second AddSet count = %v, want 2", got)
	}
	if got := h.invoke(s, 0.4, true, 1); got != 2 { // duplicate member
		t.Fatalf("duplicate AddSet count = %v, want 2", got)
	}
	if h.cost != float64(3*len(script))*policyOpCost {
		t.Fatalf("cost = %v, want %v", h.cost, float64(3*len(script))*policyOpCost)
	}

	// Counter + threshold alert.
	alert := newCompiledHandler(Script{
		{Code: OpLoadDst}, {Code: OpIncr}, {Code: OpPush, Arg: 2}, {Code: OpGT}, {Code: OpAlertIf},
	})
	for i := 0; i < 4; i++ {
		alert.invoke(s, 0.4, true, 1)
	}
	if alert.alerts != 2 { // counts 3 and 4 exceed threshold 2
		t.Fatalf("alerts = %d, want 2", alert.alerts)
	}

	// Range check reflects manifest membership. The engine never executes
	// checkScript (it is pure: a constant charge), so force the code out.
	var code []inst
	check := compileScript(checkScript, &code)
	if !check.pure || check.cost != 3*policyOpCost || check.cost != checkCost {
		t.Fatalf("checkScript compiled to %+v, want a pure 3-op program", check)
	}
	regs := make([]float64, check.regs)
	for _, in := range []bool{false, true} {
		check.exec(regs, s, 0.4, in, nil)
		if got := regs[check.result]; got != b2f(in) {
			t.Fatalf("check returned %v for inRange=%v", got, in)
		}
	}

	// Table memory accounting.
	if h.tbl.memBytes() <= 0 || alert.tbl.memBytes() <= 0 {
		t.Fatal("table memory not accounted")
	}
}

func TestVMEmptyStackPanics(t *testing.T) {
	h := newCompiledHandler(Script{{Code: OpDrop}})
	defer func() {
		if r := recover(); r != emptyStackFault {
			t.Fatalf("recovered %v, want the empty-stack panic", r)
		}
	}()
	h.invoke(&traffic.Session{}, 0, false, 1)
}

// TestFoldRuleCounterExample pins why a script with two OpAddSets is not
// folded: here the second insert grows the very set the first one counts,
// so the second invocation on the same connection measures 2 where the
// first measured 1 — cost x k and alerts x k would be wrong.
func TestFoldRuleCounterExample(t *testing.T) {
	script := Script{
		{Code: OpPush, Arg: 5}, {Code: OpPush, Arg: 9}, {Code: OpAddSet}, // {5} under key 9 -> 1, then 2
		{Code: OpPush, Arg: 1}, {Code: OpGT}, {Code: OpAlertIf}, // alert once the set exceeds 1
		{Code: OpPush, Arg: 6}, {Code: OpPush, Arg: 9}, {Code: OpAddSet}, {Code: OpDrop}, // {5,6}
	}
	h := newCompiledHandler(script)
	if h.p.foldable {
		t.Fatal("a script with two OpAddSets must not fold")
	}
	h.invoke(&traffic.Session{}, 0, true, 3)
	if h.alerts != 2 {
		t.Fatalf("alerts = %d, want 2 (invocations 2 and 3 see the grown set)", h.alerts)
	}
	one := newCompiledHandler(script[:6])
	if !one.p.foldable {
		t.Fatal("a single OpAddSet is idempotent on one connection and must fold")
	}
}

// randomScript draws a straight-line script over all 14 opcodes. Most draws
// respect the stack so scripts run deep; some do not, so underflow is
// covered, and OpRet can land anywhere.
func randomScript(rng *rand.Rand) Script {
	imms := []float64{0, math.Copysign(0, -1), 1, 2, 20, 80, 0.5, math.NaN(), math.Inf(1), -3}
	n := 1 + rng.Intn(12)
	s := make(Script, 0, n)
	depth := 0
	for len(s) < n {
		var c OpCode
		switch r := rng.Intn(100); {
		case r < 4:
			c = OpRet
		case r == 99 && rng.Intn(4) == 0:
			c = OpRet + 1 + OpCode(rng.Intn(3)) // not an opcode
		case r < 8 || depth == 0:
			c = OpCode(rng.Intn(int(OpPush) + 1)) // any load or push
			if depth == 0 && r >= 8 && rng.Intn(12) == 0 {
				c = OpCode(int(OpAddSet) + rng.Intn(7)) // pop an empty stack
			}
		default:
			c = OpCode(rng.Intn(int(OpRet))) // anything but OpRet
		}
		op := Op{Code: c}
		if c == OpPush {
			op.Arg = imms[rng.Intn(len(imms))]
		}
		s = append(s, op)
		switch c {
		case OpAddSet, OpGT, OpEQ:
			depth--
		case OpAlertIf, OpDrop:
			depth--
		case OpIncr, OpRangeCheck, OpRet:
		default:
			depth++
		}
		if depth < 0 {
			depth = 0
		}
	}
	return s
}

// tableDump and refDump render the engine's flat tables and the
// interpreter's maps in one comparable form. Keys and members go by bit
// pattern with −0 read as +0: both layouts hold one entry for the pair, and
// which sign a map keeps is invisible to a script. NaN entries, which no
// lookup can reach (each insert under a NaN makes a fresh one), go by count:
// "nan entries" for NaN-keyed counters and sets, "nan" inside a set for its
// NaN members. A pair word naming no set shows as "orphan pairs".
func tableDump(mt *moduleTables) map[string]int {
	out := map[string]int{}
	if mt == nil {
		return out
	}
	stored := 0
	for _, s := range mt.counters.slots {
		if s.a != 0 {
			out[fmt.Sprintf("c %x=%x", s.a^nanBits, math.Float64bits(float64(s.b)))]++
			stored++
		}
	}
	keys := map[uint64]uint64{} // value id → key bits: set keys and id'd members
	for _, s := range mt.values.slots {
		if s.a != 0 {
			keys[s.b&idMask] = s.a ^ nanBits
		}
	}
	members := map[uint64]map[string]int{} // set id → its members
	p := &mt.pairs
	for g, ctrl := range p.tab[:p.n] {
		for i, w := range p.tab[p.n+8*g : p.n+8*g+8] {
			if ctrl>>(8*i)&0x80 == 0 {
				continue
			}
			m := math.Float64bits(float64(w & idMask))
			if w&memberIDFlag != 0 {
				m = keys[w&idMask]
			}
			if members[w>>33] == nil {
				members[w>>33] = map[string]int{}
			}
			members[w>>33][fmt.Sprintf("%x", m)]++
		}
	}
	for _, s := range mt.values.slots {
		card := int(s.b >> 32)
		if s.a == 0 || card == 0 {
			continue // empty, or a member that keys no set
		}
		set := members[s.b&idMask]
		delete(members, s.b&idMask)
		if set == nil {
			set = map[string]int{}
		}
		if nan := card - len(set); nan != 0 {
			set["nan"] = nan
		}
		out[fmt.Sprintf("s %x %v", s.a^nanBits, set)]++
		stored += card + 1
	}
	if nan := mt.entries - stored; nan != 0 {
		out["nan entries"] = nan
	}
	if len(members) != 0 {
		out["orphan pairs"] = len(members)
	}
	return out
}

func refDump(rt *refTables) map[string]int {
	out := map[string]int{}
	for k, v := range rt.counters {
		if k != k {
			out["nan entries"]++
			continue
		}
		out[fmt.Sprintf("c %x=%x", canonBits(k), math.Float64bits(v))]++
	}
	for k, set := range rt.sets {
		if k != k {
			out["nan entries"] += len(set) + 1
			continue
		}
		members := map[string]int{}
		for m := range set {
			if m != m {
				members["nan"]++
			} else {
				members[fmt.Sprintf("%x", canonBits(m))]++
			}
		}
		out[fmt.Sprintf("s %x %v", canonBits(k), members)]++
	}
	return out
}

func canonBits(v float64) uint64 {
	if v == 0 {
		return 0
	}
	return math.Float64bits(v)
}

// catch runs f and returns what it panicked with, or nil.
func catch(f func()) (r interface{}) {
	defer func() { r = recover() }()
	f()
	return nil
}

// TestCompilerMatchesReferenceInterpreter is what licenses the compiler's
// static reasoning and the fold rule: on random straight-line scripts and
// random connections, invoking the compiled program the way the engine does
// — k repeats per connection, folded when the program says it may be —
// leaves the same result, cost, alert count and table contents as the
// interpreter run k times, and panics with the same message when the
// interpreter panics.
func TestCompilerMatchesReferenceInterpreter(t *testing.T) {
	rng := rand.New(rand.NewSource(20100))
	const scripts = 20000
	events := []float64{0, 0.4, 1, 2.5, 3, 7}
	folded, panicked, pure := 0, 0, 0
	for i := 0; i < scripts; i++ {
		script := randomScript(rng)
		h := newCompiledHandler(script)

		var refCost float64
		refAlerts := 0
		ref := refVM{cost: &refCost, alerts: &refAlerts}
		refTbl := newRefTables()

		for conn := 0; conn < 3; conn++ {
			s := &traffic.Session{
				Tuple: hashing.FiveTuple{
					SrcIP: uint32(rng.Intn(4)), DstIP: uint32(rng.Intn(4)),
					DstPort: uint16(rng.Intn(3) * 40), Proto: 6,
				},
				Packets: 1 + rng.Intn(30),
			}
			hash, inRange := rng.Float64(), rng.Intn(2) == 0
			// The engine's repeat count for a fractional or zero
			// PolicyEventsPerConn: ceil, and nothing at or below zero.
			per := events[rng.Intn(len(events))]
			k := int(math.Ceil(per))
			refLoops := 0
			for x := 0.0; x < per; x++ {
				refLoops++
			}
			if refLoops != k {
				t.Fatalf("PolicyEventsPerConn %v: interpreter loops %d times, ceil is %d", per, refLoops, k)
			}

			var got, want float64 = 1, 1
			gotPanic := catch(func() { got = h.invoke(s, hash, inRange, k) })
			wantPanic := catch(func() {
				ctx := refContext(s, hash, inRange)
				for x := 0; x < k; x++ {
					want = ref.run(script, ctx, refTbl)
				}
			})
			if gotPanic != wantPanic {
				t.Fatalf("script %d %v: compiled panic %v, interpreter panic %v", i, script, gotPanic, wantPanic)
			}
			if wantPanic != nil {
				panicked++
				break // state after a panic is unobservable
			}
			if math.Float64bits(got) != math.Float64bits(want) && k > 0 {
				t.Fatalf("script %d %v conn %d x%d: result %v, interpreter %v", i, script, conn, k, got, want)
			}
			if h.cost != refCost || h.alerts != refAlerts {
				t.Fatalf("script %d %v conn %d x%d: cost %v alerts %d, interpreter cost %v alerts %d",
					i, script, conn, k, h.cost, h.alerts, refCost, refAlerts)
			}
			if g, w := tableDump(h.tbl), refDump(refTbl); !reflect.DeepEqual(g, w) {
				t.Fatalf("script %d %v conn %d x%d: tables %v, interpreter %v", i, script, conn, k, g, w)
			}
			if g, w := h.tbl.memBytes(), refTbl.memBytes(); g != w {
				t.Fatalf("script %d %v conn %d x%d: memBytes %v, interpreter %v", i, script, conn, k, g, w)
			}
			if h.p.foldable && !h.p.pure && k > 1 {
				folded++
			}
		}
		if h.p.pure {
			pure++
		}
	}
	// The draw must actually reach every regime it claims to cover.
	if folded < scripts/20 || panicked < scripts/50 || pure < scripts/20 {
		t.Fatalf("weak draw: %d folded invocations, %d panics, %d pure scripts of %d", folded, panicked, pure, scripts)
	}
}
