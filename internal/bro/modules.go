package bro

import (
	"fmt"

	"nwdeploy/internal/core"
	"nwdeploy/internal/traffic"
)

// Stage is where a module's coordination check executes.
type Stage int

const (
	// StageEvent places the check in the compiled event engine, at module
	// initialization ("we initialize the HTTP module for a session only if
	// the session hash falls in the range assigned to this node").
	StageEvent Stage = iota
	// StagePolicy places the check in the interpreted policy script. For
	// some modules (scan, TFTP) this is the only option because "the only
	// processing that occurs is in the policy stage".
	StagePolicy
)

// ModuleSpec describes one NIDS analysis module: its traffic specification,
// aggregation semantics, resource footprint, and where its coordination
// check can run at the earliest.
type ModuleSpec struct {
	Name string
	// Ports filters the module's traffic T_i; empty means all traffic.
	Ports []uint16
	// Transport restricts to a transport protocol (6 TCP, 17 UDP); 0 = any.
	Transport uint8
	// SubscribesAll marks modules whose policy scripts receive events for
	// every connection regardless of Ports (scan and TFTP-style modules
	// watch the raw connection stream to find their traffic).
	SubscribesAll bool

	Scope core.Scope
	Agg   core.Aggregation

	// EventOpsPerPkt is compiled event-engine work per packet (protocol
	// parsing, signature byte scanning). It must be integer-valued, like
	// StateBytes: the engine batches cost increments per connection, which
	// reproduces one-at-a-time accumulation bit for bit only while every
	// increment is an integer (float sums of integers below 2^53 are exact
	// in any order). Run panics on a fractional value.
	EventOpsPerPkt float64
	// PolicyEventsPerConn is how many policy-engine event-handler
	// invocations one connection generates for this module. Modules with
	// many per-connection events (HTTP requests, IRC messages, login lines)
	// pay the interpreter — and the interpreted coordination check — that
	// many times per connection.
	PolicyEventsPerConn float64
	// PolicyScript is the interpreted handler body, executed
	// PolicyEventsPerConn times per analyzed connection.
	PolicyScript Script
	// StateBytes is per-item analysis state beyond the connection record;
	// integer-valued, see EventOpsPerPkt.
	StateBytes float64

	// EarliestCheck is the earliest stage the coordination check can be
	// implemented for this module.
	EarliestCheck Stage

	// FirstPacketOnly marks modules that need to observe only the first
	// packet of each connection (the paper's Section 2.5 example: "Scan
	// needs to observe only the first packet in a connection to track the
	// number of distinct destination IPs that a source contacts"). Under
	// the fine-grained coordination extension these modules subscribe to a
	// first-packet event instead of full connection records, so a node
	// running only such modules skips connection tracking entirely.
	FirstPacketOnly bool
}

// MatchesSession reports whether the module analyzes the session.
func (m ModuleSpec) MatchesSession(s traffic.Session) bool {
	if m.Transport != 0 && s.Tuple.Proto != m.Transport {
		return false
	}
	if len(m.Ports) == 0 {
		return true
	}
	for _, p := range m.Ports {
		if s.Tuple.DstPort == p {
			return true
		}
	}
	return false
}

// SubscribedTo reports whether the module's policy handlers are invoked for
// the session at all (a superset of MatchesSession for SubscribesAll
// modules, whose scripts run on every connection to find their traffic).
func (m ModuleSpec) SubscribedTo(s traffic.Session) bool {
	if m.SubscribesAll {
		return m.Transport == 0 || s.Tuple.Proto == m.Transport
	}
	return m.MatchesSession(s)
}

// The scan-detection threshold: alert when a source contacts more distinct
// destinations than this.
const scanThreshold = 20

// The SYN-flood threshold: alert when a destination accumulates more
// connections than this.
const synFloodThreshold = 500

// StandardModules returns the nine modules of the paper's Figure 5:
// Baseline, Scan, IRC, Login, TFTP, HTTP, Blaster, Signature, SYNFlood.
// Cost parameters are calibrated so the standalone microbenchmarks
// reproduce the paper's relative overheads (see DESIGN.md).
func StandardModules() []ModuleSpec {
	return []ModuleSpec{
		{
			// Baseline is plain connection processing with no analysis
			// module enabled: it isolates the cost of the coordination
			// extensions themselves.
			Name:  "baseline",
			Scope: core.PerPath, Agg: core.BySession,
			EarliestCheck: StageEvent,
		},
		{
			// Scan detection tracks distinct destinations per source. It
			// receives raw connection events for all traffic and lives
			// entirely in the policy engine; ingress nodes are the only
			// locations that see everything a host initiates.
			Name:          "scan",
			SubscribesAll: true,
			Scope:         core.PerIngress, Agg: core.BySource,
			PolicyEventsPerConn: 3,
			PolicyScript: Script{
				{Code: OpLoadDst},
				{Code: OpLoadSrc},
				{Code: OpAddSet},
				{Code: OpPush, Arg: scanThreshold},
				{Code: OpGT},
				{Code: OpAlertIf},
			},
			StateBytes:      120,
			EarliestCheck:   StagePolicy,
			FirstPacketOnly: true,
		},
		{
			// IRC analysis parses messages in the event engine and runs
			// per-message policy handlers.
			Name:  "irc",
			Ports: []uint16{6667}, Transport: 6,
			Scope: core.PerPath, Agg: core.BySession,
			EventOpsPerPkt:      12,
			PolicyEventsPerConn: 20,
			PolicyScript: Script{
				{Code: OpLoadPort},
				{Code: OpPush, Arg: 6667},
				{Code: OpEQ},
				{Code: OpDrop},
			},
			StateBytes:    180,
			EarliestCheck: StageEvent,
		},
		{
			// Login (telnet/rlogin) watches interactive sessions
			// line-by-line.
			Name:  "login",
			Ports: []uint16{23, 513}, Transport: 6,
			Scope: core.PerPath, Agg: core.BySession,
			EventOpsPerPkt:      10,
			PolicyEventsPerConn: 18,
			PolicyScript: Script{
				{Code: OpLoadPkts},
				{Code: OpPush, Arg: 4000},
				{Code: OpGT},
				{Code: OpAlertIf},
			},
			StateBytes:    160,
			EarliestCheck: StageEvent,
		},
		{
			// TFTP processing receives raw per-packet udp_request/udp_reply
			// events (it must find TFTP transfers on any port) and is
			// policy-only, which is why its coordination check is costly.
			Name:          "tftp",
			SubscribesAll: true, Transport: 17,
			Scope: core.PerPath, Agg: core.BySession,
			PolicyEventsPerConn: 10,
			PolicyScript: Script{
				{Code: OpLoadPort},
				{Code: OpPush, Arg: 69},
				{Code: OpEQ},
				{Code: OpDrop},
			},
			StateBytes:    100,
			EarliestCheck: StagePolicy,
		},
		{
			// HTTP analysis is the heaviest protocol module: event-engine
			// parsing per packet plus a policy handler per request.
			Name:  "http",
			Ports: []uint16{80}, Transport: 6,
			Scope: core.PerPath, Agg: core.BySession,
			EventOpsPerPkt:      25,
			PolicyEventsPerConn: 9,
			PolicyScript: Script{
				{Code: OpLoadPkts},
				{Code: OpPush, Arg: 1},
				{Code: OpGT},
				{Code: OpDrop},
			},
			StateBytes:    200,
			EarliestCheck: StageEvent,
		},
		{
			// Blaster worm detection watches MSRPC (port 135) connections
			// in a small policy script; it tracks per-source behaviour, so
			// like scan detection it belongs at the source's ingress.
			Name:  "blaster",
			Ports: []uint16{135}, Transport: 6,
			Scope: core.PerIngress, Agg: core.BySource,
			PolicyEventsPerConn: 1,
			PolicyScript: Script{
				{Code: OpLoadSrc},
				{Code: OpIncr},
				{Code: OpPush, Arg: 100},
				{Code: OpGT},
				{Code: OpAlertIf},
			},
			StateBytes:      60,
			EarliestCheck:   StagePolicy,
			FirstPacketOnly: true,
		},
		{
			// Signature matching byte-scans every packet in the event
			// engine; no policy-stage work.
			Name:  "signature",
			Scope: core.PerPath, Agg: core.BySession,
			EventOpsPerPkt: 40,
			StateBytes:     80,
			EarliestCheck:  StageEvent,
		},
		{
			// SYN-flood detection counts connections per destination with a
			// single cheap policy handler on TCP connections; inbound
			// floods are best detected at the victim's egress gateway.
			Name:      "synflood",
			Transport: 6, SubscribesAll: true,
			Scope: core.PerEgress, Agg: core.ByDestination,
			PolicyEventsPerConn: 1,
			PolicyScript: Script{
				{Code: OpLoadDst},
				{Code: OpIncr},
				{Code: OpPush, Arg: synFloodThreshold},
				{Code: OpGT},
				{Code: OpAlertIf},
			},
			StateBytes:      60,
			EarliestCheck:   StagePolicy,
			FirstPacketOnly: true,
		},
	}
}

// WithDuplicates grows the standard module set to n modules by cloning
// HTTP, IRC, Login, and TFTP instances, exactly as the paper does to
// emulate adding NIDS functionality ("we start with the set of modules
// shown in Figure 5 and create duplicate instances of HTTP, IRC, Login, and
// TFTP modules"). It panics if n is below the standard set's size.
func WithDuplicates(n int) []ModuleSpec {
	base := StandardModules()
	if n < len(base) {
		panic(fmt.Sprintf("bro: cannot shrink standard module set to %d", n))
	}
	byName := map[string]ModuleSpec{}
	for _, m := range base {
		byName[m.Name] = m
	}
	cycle := []string{"http", "irc", "login", "tftp"}
	out := base
	for i := 0; len(out) < n; i++ {
		src := byName[cycle[i%len(cycle)]]
		src.Name = fmt.Sprintf("%s-dup%d", src.Name, i/len(cycle)+2)
		out = append(out, src)
	}
	return out
}

// ModuleSubset returns the first n modules of the standard order, for the
// Figure 6 sweep from 8 toward 21 modules. n below 9 drops from the end of
// the standard list.
func ModuleSubset(n int) []ModuleSpec {
	if n <= len(StandardModules()) {
		return StandardModules()[:n]
	}
	return WithDuplicates(n)
}

// perConnCPU returns the module's total simulated CPU per analyzed
// connection with the given packet count — the basis for the LP's
// CpuReq_i, expressed per packet below.
func (m ModuleSpec) perConnCPU(pkts float64) float64 {
	return m.EventOpsPerPkt*pkts + m.PolicyEventsPerConn*float64(len(m.PolicyScript))*policyOpCost
}

// Classes converts module specs into the planner's class descriptions. The
// CPU requirement is normalized per packet using the expected packet count
// of the module's traffic under the mixed profile, matching how the paper
// derives CpuReq_i from offline profiles.
func Classes(specs []ModuleSpec) []core.Class {
	const meanPkts = 25 // mixed-profile mean packets per session
	classes := make([]core.Class, len(specs))
	for i, m := range specs {
		classes[i] = core.Class{
			Name:       m.Name,
			Scope:      m.Scope,
			Agg:        m.Agg,
			Ports:      m.Ports,
			Transport:  m.Transport,
			CPUPerPkt:  m.perConnCPU(meanPkts)/meanPkts + connPktCost,
			MemPerItem: m.StateBytes + connRecordBytes,
		}
	}
	return classes
}
