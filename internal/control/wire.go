// Package control implements the distribution side of the system: the
// paper envisions "a centralized operations center [that] periodically
// configures the NIDS responsibilities of the different nodes" from
// NetFlow-style reports, re-running the optimization every few minutes.
// This package provides the wire representation of sampling manifests, a
// TCP controller that serves them, an agent that fetches them, and a
// standalone Decider that executes the Figure 3 per-packet check from the
// wire form alone — a node needs no access to the planner, the LP, or the
// topology objects to enforce its assignment.
package control

import (
	"fmt"
	"sort"

	"nwdeploy/internal/core"
	"nwdeploy/internal/hashing"
)

// WireTrace is the optional trace-context header carried on manifests and
// requests: the (trace, span) IDs — 16 hex digits each, as rendered by
// trace.Span — of the control-plane action that produced the message. It
// is what stitches a controller publish to every agent's fetch of the
// resulting manifest. Pointer-valued with omitempty everywhere it
// appears, so untraced deployments keep the pre-trace wire encoding
// byte-for-byte and old peers that have never heard of it interoperate.
type WireTrace struct {
	Trace string `json:"trace"`
	Span  string `json:"span"`
}

// WireRange is one half-open hash range on the wire.
type WireRange struct {
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
}

// WireClass carries the class semantics a node needs to resolve GETCLASS,
// GETCOORDUNIT, and HASH for incoming packets.
type WireClass struct {
	Name      string   `json:"name"`
	Scope     int      `json:"scope"` // core.Scope
	Agg       int      `json:"agg"`   // core.Aggregation
	Ports     []uint16 `json:"ports,omitempty"`
	Transport uint8    `json:"transport,omitempty"`
}

// WireAssignment is one (class, coordination unit) range assignment.
type WireAssignment struct {
	Class  int         `json:"class"` // index into Manifest.Classes
	Unit   [2]int      `json:"unit"`  // coordination-unit key
	Ranges []WireRange `json:"ranges"`
}

// Manifest is one node's complete sampling manifest: the Figure 2 output
// in distributable form.
type Manifest struct {
	Node        int              `json:"node"`
	Epoch       uint64           `json:"epoch"`
	HashKey     uint32           `json:"hash_key"`
	Classes     []WireClass      `json:"classes"`
	Assignments []WireAssignment `json:"assignments"`
	// Shed lists ranges within Assignments that the node's load governor
	// has given up under overload: the decider subtracts them from the
	// assignment before answering DecideMask, so peers and audits see
	// exactly the responsibility that was dropped. Empty in steady state
	// (and omitted from the wire form, keeping the base encoding stable).
	Shed []WireAssignment `json:"shed,omitempty"`
	// Trace is the context of the publish that produced this manifest
	// generation; nil when the controller runs untraced.
	Trace *WireTrace `json:"trace,omitempty"`
}

// The bounds an installed manifest must respect. The decider indexes each
// class's units by a dense array over its first unit-key component, so an
// unbounded key (or a huge class count times a wide key span) would let a
// few wire bytes allocate gigabytes. maxWireNodes is above every topology
// and fleet the project runs (1000 agents at most). maxWireClasses is the
// bound the data plane is built for: every class set is one 64-bit word,
// from the Decider's masks to the engine's rows, three times the 21
// modules of the paper's scaling sweep.
const (
	maxWireNodes   = 1 << 12
	maxWireClasses = 64
)

// checkManifest is the gate every manifest an agent installs passes,
// whether it arrived as JSON, as binary, or as the result of ApplyDelta:
// at most maxWireClasses classes, and assignments and shed whose class
// indices are in range, whose unit-key components are -1 or a node id
// below maxWireNodes, and whose range endpoints lie in [0, 1] (a NaN
// endpoint splits every range it is subtracted from in two, so a few
// dozen NaN shed ranges would multiply into billions). A failing manifest
// is rejected, never clamped.
func checkManifest(m *Manifest) error {
	if len(m.Classes) > maxWireClasses {
		return fmt.Errorf("control: manifest has %d classes, more than %d", len(m.Classes), maxWireClasses)
	}
	if err := checkAssignments(m.Assignments, len(m.Classes)); err != nil {
		return err
	}
	return checkAssignments(m.Shed, len(m.Classes))
}

// checkAssignments applies checkManifest's per-assignment rules against a
// manifest of nClasses classes.
func checkAssignments(as []WireAssignment, nClasses int) error {
	for _, a := range as {
		if a.Class < 0 || a.Class >= nClasses {
			return fmt.Errorf("control: assignment class %d outside the manifest's %d classes", a.Class, nClasses)
		}
		for _, k := range a.Unit {
			if k < -1 || k >= maxWireNodes {
				return fmt.Errorf("control: unit key %v: component outside [-1, %d)", a.Unit, maxWireNodes)
			}
		}
		for _, r := range a.Ranges {
			if !(r.Lo >= 0 && r.Lo <= 1 && r.Hi >= 0 && r.Hi <= 1) {
				return fmt.Errorf("control: unit key %v: range [%v, %v) outside [0, 1]", a.Unit, r.Lo, r.Hi)
			}
		}
	}
	return nil
}

// ShedFromRanges converts a governor's unit-indexed shed state into wire
// assignments keyed the way manifests are (class, unit key). Unit order is
// ascending index, so the wire form is deterministic for a given shed.
func ShedFromRanges(plan *core.Plan, shed map[int]hashing.RangeSet) []WireAssignment {
	if len(shed) == 0 {
		return nil
	}
	units := make([]int, 0, len(shed))
	for ui := range shed {
		units = append(units, ui)
	}
	sort.Ints(units)
	out := make([]WireAssignment, 0, len(units))
	for _, ui := range units {
		u := plan.Inst.Units[ui]
		wa := WireAssignment{Class: u.Class, Unit: u.Key}
		for _, r := range shed[ui] {
			if r.Width() > 0 {
				wa.Ranges = append(wa.Ranges, WireRange{Lo: r.Lo, Hi: r.Hi})
			}
		}
		if len(wa.Ranges) > 0 {
			out = append(out, wa)
		}
	}
	return out
}

// ManifestFromPlan extracts node j's manifest from a solved plan, stamped
// with the given epoch and hash key. Assignments are emitted in ascending
// unit-index order, so the wire encoding of a given plan is deterministic
// — the property the delta protocol's byte-level fixtures and the
// same-seed determinism tests rely on (the manifest's Ranges field is a
// map, whose iteration order would otherwise leak into the wire bytes).
// A plan of more than maxWireClasses classes has no manifest.
func ManifestFromPlan(plan *core.Plan, node int, epoch uint64, hashKey uint32) (*Manifest, error) {
	if node < 0 || node >= len(plan.Manifests) {
		return nil, fmt.Errorf("control: node %d out of range", node)
	}
	if n := len(plan.Inst.Classes); n > maxWireClasses {
		return nil, fmt.Errorf("control: plan has %d classes, more than %d", n, maxWireClasses)
	}
	return &Manifest{
		Node: node, Epoch: epoch, HashKey: hashKey,
		Classes: wireClasses(plan.Inst), Assignments: wireAssignments(plan, node),
	}, nil
}
