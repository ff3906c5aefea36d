package control

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"nwdeploy/internal/hashing"
	"nwdeploy/internal/ledger"
)

// This file is the control plane's ledger surface: the canonical byte
// encoding of manifests committed to the tamper-evident epoch ledger,
// and the controller-side commits on UpdatePlan/PublishShed.
//
// Canonical means path-independent. A manifest reconstructed by
// ApplyDelta differs representationally from a full fetch of the same
// epoch — assignments land in canonical (class, unit-key) order rather
// than ascending unit-index order, and set subtraction can leave an
// assignment's width split across adjacent ranges ([0.2,0.3)+[0.3,0.5)
// where the full fetch has [0.2,0.5)) — while enforcing exactly the same
// responsibility. The canonical form erases exactly those degrees of
// freedom: assignments and shed entries are folded per (class, unit-key)
// in canonical key order with duplicate keys merged, ranges sorted
// Lo-ascending and coalesced where they touch or overlap, and the
// epoch stamp and trace context stripped (the chain record carries the
// epoch; trace context is telemetry, not responsibility — and both would
// defeat content-addressed deduplication of unchanged manifests across
// epochs). Two manifests canonicalize to the same bytes iff they assign
// the same ranges — the property the delta-path equivalence tests pin.

// canonManifest is the serialized canonical form. It is a subset of
// Manifest: no Epoch (the chain record binds it), no Trace.
type canonManifest struct {
	Node        int              `json:"node"`
	HashKey     uint32           `json:"hash_key"`
	Classes     []WireClass      `json:"classes"`
	Assignments []WireAssignment `json:"assignments,omitempty"`
	Shed        []WireAssignment `json:"shed,omitempty"`
}

// CanonicalAssignments normalizes an assignment slice into its canonical
// form: finite bounds enforced (a NaN or infinite range bound returns an
// error wrapping ledger.ErrNonFinite — NaN payload bits are
// platform-dependent, and the empty-range filter would otherwise silently
// drop such ranges), duplicate (class, unit) entries merged, keys in
// canonical order, ranges Lo-ascending with touching or overlapping ranges
// coalesced, empty ranges dropped.
func CanonicalAssignments(as []WireAssignment) ([]WireAssignment, error) {
	for _, a := range as {
		for _, r := range a.Ranges {
			if !finite(r.Lo) || !finite(r.Hi) {
				return nil, fmt.Errorf("control: assignment class %d unit %v range [%v,%v): %w",
					a.Class, a.Unit, r.Lo, r.Hi, ledger.ErrNonFinite)
			}
		}
	}
	groups := newRuns(as)
	var kb [16]akey
	var eb [16]int32
	var rb [32]hashing.Range
	b := newBuilder(kb[:], eb[:], rb[:])
	for !groups.done() {
		k := groups.key()
		start := b.start()
		b.pieces = groups.take(b.pieces, k)
		b.pieces = coalesceRanges(b.pieces, start)
		b = b.close(k)
	}
	return b.wire(), nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// coalesceRanges sorts rs[start:] Lo-ascending and merges, in place,
// ranges that overlap or share a boundary, yielding the unique minimal
// disjoint representation of their union; it returns rs truncated to the
// merged ranges.
func coalesceRanges(rs hashing.RangeSet, start int) hashing.RangeSet {
	if len(rs) == start {
		return rs
	}
	sortRanges(rs[start:])
	out := rs[:start+1]
	for _, r := range rs[start+1:] {
		last := &out[len(out)-1]
		if r.Lo <= last.Hi {
			if r.Hi > last.Hi {
				last.Hi = r.Hi
			}
			continue
		}
		out = append(out, r)
	}
	return out
}

// CanonicalManifest returns the canonical ledger encoding of a manifest:
// deterministic JSON of the normalized assignment and shed sets, with
// the epoch stamp and trace context stripped. Delta-reconstructed and
// full-fetch manifests of the same epoch encode byte-identically.
func CanonicalManifest(m *Manifest) ([]byte, error) {
	as, err := CanonicalAssignments(m.Assignments)
	if err != nil {
		return nil, fmt.Errorf("manifest node %d: %w", m.Node, err)
	}
	shed, err := CanonicalAssignments(m.Shed)
	if err != nil {
		return nil, fmt.Errorf("manifest node %d shed: %w", m.Node, err)
	}
	return json.Marshal(canonManifest{
		Node: m.Node, HashKey: m.HashKey, Classes: m.Classes,
		Assignments: as, Shed: shed,
	})
}

// DecodeCanonicalManifest parses a canonical manifest blob back into a
// Manifest (Epoch 0, no trace) — the offline verifier's read path.
func DecodeCanonicalManifest(b []byte) (*Manifest, error) {
	var cm canonManifest
	if err := json.Unmarshal(b, &cm); err != nil {
		return nil, fmt.Errorf("control: canonical manifest: %w", err)
	}
	return &Manifest{
		Node: cm.Node, HashKey: cm.HashKey, Classes: cm.Classes,
		Assignments: cm.Assignments, Shed: cm.Shed,
	}, nil
}

// commitLocked seals the controller's post-publish state into the
// attached ledger: one off-chain canonical manifest blob per node (the
// content-addressed store dedups nodes whose manifests did not change),
// plus the live shed state inline per shedding node. Called with c.mu
// held immediately after an epoch bump; a nil ledger makes it free.
func (c *Controller) commitLocked(kind string) {
	if c.ledger == nil || c.cur.plan == nil {
		return
	}
	b := c.ledger.Begin(kind, c.epoch)
	for j := range c.cur.slots {
		data, err := CanonicalManifest(c.cur.published(j))
		b.Blob(ledger.ItemManifest, fmt.Sprintf("node/%d", j), data, err)
	}
	nodes := make([]int, 0, len(c.shed))
	for j := range c.shed {
		nodes = append(nodes, j)
	}
	sort.Ints(nodes)
	for _, j := range nodes {
		as, err := CanonicalAssignments(c.shed[j])
		var data []byte
		if err == nil {
			data, err = json.Marshal(as)
		}
		b.Item(ledger.ItemShed, fmt.Sprintf("node/%d", j), data, err)
	}
	b.Commit()
}
