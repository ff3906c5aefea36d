// Package bro implements a faithful simulation of the Bro NIDS pipeline the
// paper prototypes on (Section 2.3): an event engine that performs
// per-packet protocol work and maintains connection records, and a policy
// engine that runs site-specific scripts in an interpreter. The two
// coordination-check placements the paper compares — "delay the sampling
// checks until the policy engine stage" versus "implement the sampling
// checks in the event engine as early as possible" — are both implemented,
// and their cost difference arises the same way it does in Bro: policy
// scripts execute in an interpreter whose per-operation cost is an order of
// magnitude above compiled event-engine code ("the policy scripts are
// executed by an interpreter and doing hash lookups/checks is quite
// expensive").
//
// The simulator is driven by synthetic session workloads (internal/traffic)
// and accounts CPU in abstract cost units and memory in bytes; DESIGN.md
// documents the calibration against the paper's Figure 5 and the Dreger et
// al. resource profiles.
package bro

import (
	"fmt"

	"nwdeploy/internal/traffic"
)

// OpCode enumerates the policy-interpreter instructions. The set is small
// but operational: scripts really execute, maintain real per-module tables,
// and raise real alerts, so functional equivalence between deployments is
// testable, while every executed instruction is charged interpreter cost.
type OpCode int

const (
	// OpLoadSrc pushes the connection's source address key.
	OpLoadSrc OpCode = iota
	// OpLoadDst pushes the connection's destination address key.
	OpLoadDst
	// OpLoadPort pushes the connection's server port.
	OpLoadPort
	// OpLoadPkts pushes the connection's packet count.
	OpLoadPkts
	// OpLoadHash pushes the connection-record hash selected by the module's
	// aggregation (the hashes the prototype adds to the connection record
	// precisely so scripts need not recompute them).
	OpLoadHash
	// OpPush pushes the immediate argument.
	OpPush
	// OpAddSet pops key then member, inserts member into the per-key set of
	// the module table, and pushes the set's new cardinality. This is the
	// distinct-destination counting at the heart of scan detection.
	OpAddSet
	// OpIncr pops a key, increments its counter, pushes the new value.
	OpIncr
	// OpGT pops b then a, pushes 1 if a > b else 0.
	OpGT
	// OpEQ pops b then a, pushes 1 if a == b else 0.
	OpEQ
	// OpAlertIf pops a value and raises an alert if nonzero.
	OpAlertIf
	// OpRangeCheck pops a hash point and pushes 1 if it lies inside the
	// module's manifest ranges for this connection's coordination unit.
	OpRangeCheck
	// OpDrop pops and discards.
	OpDrop
	// OpRet stops execution; the value on top of the stack (or 1 if empty)
	// is the script result.
	OpRet
)

// Op is one interpreter instruction.
type Op struct {
	Code OpCode
	Arg  float64
}

// Script is a policy-engine program.
type Script []Op

// moduleTables is the persistent per-module policy state: keyed sets (scan
// detection) and counters (SYN-flood victim counts). Only modules whose
// compiled script executes OpAddSet or OpIncr get one (a nil *moduleTables
// is an empty table), and each map is made on its first write.
type moduleTables struct {
	sets     map[float64]map[float64]struct{}
	counters map[float64]float64
}

// memBytes estimates the resident size of the tables: one set entry or
// counter is charged at tableEntryBytes.
func (mt *moduleTables) memBytes() float64 {
	if mt == nil {
		return 0
	}
	n := len(mt.counters)
	for _, s := range mt.sets {
		n += len(s) + 1
	}
	return float64(n) * tableEntryBytes
}

// inst is one compiled instruction. Scripts have no jumps, so the stack
// depth at every op is known when the script is compiled and the stack
// becomes a register file: r is the slot the instruction writes, and a
// two-operand instruction reads r and r+1 (r+1 was the top of stack).
type inst struct {
	imm float64
	r   int32
	op  uint8 // an OpCode; every opcode compileScript emits fits
}

// program is a Script compiled for one module. Everything a straight-line
// script does besides its table writes and alerts is decided here, once:
// how many ops execute (up to the first OpRet), what that costs, whether an
// op would pop an empty stack, whether it reads the aggregation hash, and
// whether it has any effect at all.
type program struct {
	// code is the executed prefix in register form; OpDrop and OpRet leave
	// nothing behind. Empty when compiled without a code buffer.
	code []inst
	// cost is what one invocation charges: executed ops x policyOpCost.
	cost float64
	// fault, when non-empty, is the panic the interpreter would raise after
	// executing code: an empty-stack pop or an unknown opcode.
	fault string
	// ops is the length of the executed prefix in source ops; regs the
	// register file the code needs (the maximum stack depth); result the
	// register holding the script's result, or -1 when the stack is empty
	// at return ("handler ran to completion": result 1).
	ops, regs, result int32
	// loadsHash: some executed op is OpLoadHash, so the caller must supply
	// the module's aggregation hash.
	loadsHash bool
	// mutates: some executed op writes the module's policy tables.
	mutates bool
	// pure: no table write, no alert, no fault — an invocation is its cost.
	pure bool
	// foldable: k back-to-back invocations on one connection equal one
	// invocation with cost and alerts multiplied by k. True without OpIncr
	// and with at most one OpAddSet (a second can grow the set the first
	// counts, so repeat 2 would measure more than repeat 1) and no NaN
	// immediate beside it (a NaN key never equals itself: every repeat
	// inserts afresh). DESIGN.md, "Compiled module table", has the example.
	foldable bool
}

const emptyStackFault = "bro: policy script popped an empty stack"

// compileScript analyzes s and, when code is non-nil, appends the register
// form of its executed prefix to *code (the program aliases that backing
// array). Passing nil analyzes only, so a caller can size one backing array
// for a whole module set before emitting into it.
func compileScript(s Script, code *[]inst) program {
	var p program
	start := 0
	if code != nil {
		start = len(*code)
	}
	depth, addSets, incrs, alerts, nanImm := int32(0), 0, 0, 0, false
scan:
	for _, op := range s {
		p.ops++
		pops, pushes := int32(0), int32(1)
		switch op.Code {
		case OpLoadSrc, OpLoadDst, OpLoadPort, OpLoadPkts:
		case OpLoadHash:
			p.loadsHash = true
		case OpPush:
			nanImm = nanImm || op.Arg != op.Arg
		case OpAddSet:
			pops, addSets = 2, addSets+1
		case OpGT, OpEQ:
			pops = 2
		case OpIncr:
			pops, incrs = 1, incrs+1
		case OpRangeCheck:
			pops = 1
		case OpAlertIf:
			pops, pushes, alerts = 1, 0, alerts+1
		case OpDrop:
			pops, pushes = 1, 0
		case OpRet:
			break scan
		default:
			p.fault = fmt.Sprintf("bro: unknown opcode %d", op.Code)
			break scan
		}
		if depth < pops {
			p.fault = emptyStackFault
			break scan
		}
		depth -= pops
		if code != nil && op.Code != OpDrop {
			*code = append(*code, inst{op: uint8(op.Code), r: depth, imm: op.Arg})
		}
		if depth += pushes; depth > p.regs {
			p.regs = depth
		}
	}
	p.cost = float64(p.ops) * policyOpCost
	p.result = depth - 1
	p.mutates = addSets+incrs > 0
	p.pure = !p.mutates && alerts == 0 && p.fault == ""
	p.foldable = p.fault == "" && incrs == 0 && addSets <= 1 && !(addSets == 1 && nanImm)
	if code != nil {
		p.code = (*code)[start:len(*code):len(*code)]
	}
	return p
}

// exec runs the compiled code once against one connection and returns the
// alerts it raised. regs must hold at least p.regs slots; hash is the
// module's aggregation hash (read only when p.loadsHash) and inRange the
// precomputed manifest membership OpRangeCheck reports. The caller charges
// p.cost; pure programs need not be executed at all.
func (p *program) exec(regs []float64, s *traffic.Session, hash float64, inRange bool, tbl *moduleTables) (alerts int) {
	for i := range p.code {
		in := &p.code[i]
		r := in.r
		switch OpCode(in.op) {
		case OpLoadSrc:
			regs[r] = float64(s.Tuple.SrcIP)
		case OpLoadDst:
			regs[r] = float64(s.Tuple.DstIP)
		case OpLoadPort:
			regs[r] = float64(s.Tuple.DstPort)
		case OpLoadPkts:
			regs[r] = float64(s.Packets)
		case OpLoadHash:
			regs[r] = hash
		case OpPush:
			regs[r] = in.imm
		case OpAddSet:
			member, key := regs[r], regs[r+1]
			set := tbl.sets[key]
			if set == nil {
				if tbl.sets == nil {
					tbl.sets = make(map[float64]map[float64]struct{})
				}
				set = make(map[float64]struct{})
				tbl.sets[key] = set
			}
			set[member] = struct{}{}
			regs[r] = float64(len(set))
		case OpIncr:
			key := regs[r]
			if tbl.counters == nil {
				tbl.counters = make(map[float64]float64)
			}
			tbl.counters[key]++
			regs[r] = tbl.counters[key]
		case OpGT:
			regs[r] = b2f(regs[r] > regs[r+1])
		case OpEQ:
			regs[r] = b2f(regs[r] == regs[r+1])
		case OpAlertIf:
			if regs[r] != 0 {
				alerts++
			}
		case OpRangeCheck:
			regs[r] = b2f(inRange)
		}
	}
	if p.fault != "" {
		panic(p.fault)
	}
	return alerts
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// checkScript is the interpreted form of the Figure 3 sampling check used
// when a module's coordination check must run in the policy engine: load
// the precomputed hash from the connection record, test it against the
// node's manifest ranges, and return the verdict. It compiles to a pure
// program, so the engine charges checkCost per invocation and runs nothing.
var checkScript = Script{
	{Code: OpLoadHash},
	{Code: OpRangeCheck},
	{Code: OpRet},
}

// checkCost is one policy-stage coordination check: checkScript's three
// interpreted ops.
var checkCost = compileScript(checkScript, nil).cost
