package control

import (
	"errors"
	"fmt"
	"reflect"
	"sort"

	"nwdeploy/internal/hashing"
)

// WireDelta is one node's manifest change between two configuration
// epochs: only the (class, unit) ranges that were added or removed, plus a
// shed replacement when the governor state moved. Applying it to the
// manifest of BaseEpoch yields a manifest whose per-packet verdicts are
// identical to a full fetch of Epoch — the O(changed-ranges) wire form a
// v2 controller ships instead of full manifests.
//
// A delta never carries the class table or the hash key: when either
// changes between the epochs, the controller refuses to diff and serves a
// full manifest instead (the fallback path agents also take on an epoch
// gap or protocol-version mismatch).
type WireDelta struct {
	Node      int    `json:"node"`
	BaseEpoch uint64 `json:"base_epoch"`
	Epoch     uint64 `json:"epoch"`
	// Added and Removed list range edits per (class, unit) in canonical
	// (class, unit-key) order. A point x moves into the assignment iff it
	// is in Added and out iff it is in Removed; the two are disjoint.
	Added   []WireAssignment `json:"added,omitempty"`
	Removed []WireAssignment `json:"removed,omitempty"`
	// ShedChanged marks a shed-state transition; Shed is then the complete
	// replacement (possibly empty: the governor restored everything).
	// Sheds are tiny and churn atomically with governor decisions, so a
	// replacement costs less than diffing them would save.
	ShedChanged bool             `json:"shed_changed,omitempty"`
	Shed        []WireAssignment `json:"shed,omitempty"`
	// Trace is the publish context of the target epoch, exactly as a full
	// manifest would carry it.
	Trace *WireTrace `json:"trace,omitempty"`
}

// ErrDeltaGap reports that a delta's base epoch does not match the
// manifest it was applied to — the agent must fall back to a full fetch.
var ErrDeltaGap = errors.New("control: delta base epoch does not match installed manifest")

// rangesByKey folds an assignment slice into per-key range sets. Duplicate
// keys concatenate (manifests built by ManifestFromPlan never produce
// them, but hand-built ones may).
func rangesByKey(as []WireAssignment) map[akey]hashing.RangeSet {
	m := make(map[akey]hashing.RangeSet, len(as))
	for _, a := range as {
		k := akey{a.Class, int32(a.Unit[0]), int32(a.Unit[1])}
		rs := m[k]
		for _, r := range a.Ranges {
			if r.Hi > r.Lo {
				rs = append(rs, hashing.Range{Lo: r.Lo, Hi: r.Hi})
			}
		}
		m[k] = rs
	}
	return m
}

// sortedKeys returns the union of both maps' keys in canonical order, so
// diff output is deterministic however the manifests' slices were ordered.
func sortedKeys(a, b map[akey]hashing.RangeSet) []akey {
	keys := make([]akey, 0, len(a)+len(b))
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, dup := a[k]; !dup {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].less(keys[j]) })
	return keys
}

// appendAssignment converts one key's range set to wire form and appends
// it, dropping empty entries. Ranges are emitted Lo-ascending.
func appendAssignment(out []WireAssignment, k akey, rs hashing.RangeSet) []WireAssignment {
	sort.Slice(rs, func(i, j int) bool { return rs[i].Lo < rs[j].Lo })
	wa := WireAssignment{Class: k.class, Unit: [2]int{int(k.k0), int(k.k1)}}
	for _, r := range rs {
		if r.Width() > 0 {
			wa.Ranges = append(wa.Ranges, WireRange{Lo: r.Lo, Hi: r.Hi})
		}
	}
	if len(wa.Ranges) == 0 {
		return out
	}
	return append(out, wa)
}

// DiffManifests computes the delta that rewrites old into new. It returns
// (nil, false) when the pair cannot be expressed as a delta — different
// nodes, a hash-key rotation, or a changed class table — in which case the
// caller must ship a full manifest. All range boundaries in the result are
// copies of boundaries already present in old or new (set subtraction
// introduces no new float values), so delta application is exact.
func DiffManifests(old, new *Manifest) (*WireDelta, bool) {
	if old == nil || new == nil || old.Node != new.Node || old.HashKey != new.HashKey {
		return nil, false
	}
	if !reflect.DeepEqual(old.Classes, new.Classes) {
		return nil, false
	}
	d := &WireDelta{Node: new.Node, BaseEpoch: old.Epoch, Epoch: new.Epoch, Trace: new.Trace}
	oldR, newR := rangesByKey(old.Assignments), rangesByKey(new.Assignments)
	for _, k := range sortedKeys(oldR, newR) {
		o, n := oldR[k], newR[k]
		if added := n.Subtract(o); len(added) > 0 {
			d.Added = appendAssignment(d.Added, k, added)
		}
		if removed := o.Subtract(n); len(removed) > 0 {
			d.Removed = appendAssignment(d.Removed, k, removed)
		}
	}
	if !reflect.DeepEqual(old.Shed, new.Shed) {
		d.ShedChanged = true
		d.Shed = new.Shed
	}
	return d, true
}

// ApplyDelta rewrites base (the manifest of d.BaseEpoch) into the manifest
// of d.Epoch. base is not mutated. The result's assignments are in
// canonical (class, unit-key) order with Lo-ascending ranges; its verdict
// behavior under Decider equals a full fetch of the target epoch exactly,
// because every boundary value is copied, never recomputed.
func ApplyDelta(base *Manifest, d *WireDelta) (*Manifest, error) {
	if base == nil {
		return nil, errors.New("control: applying delta to nil manifest")
	}
	if base.Node != d.Node {
		return nil, fmt.Errorf("control: delta for node %d applied to node %d", d.Node, base.Node)
	}
	if base.Epoch != d.BaseEpoch {
		return nil, fmt.Errorf("%w (have %d, delta base %d)", ErrDeltaGap, base.Epoch, d.BaseEpoch)
	}
	// Check the delta's keys before they are packed into 32-bit index
	// keys, so an out-of-range one fails instead of wrapping.
	for _, as := range [][]WireAssignment{d.Added, d.Removed, d.Shed} {
		if err := checkAssignments(as, len(base.Classes)); err != nil {
			return nil, err
		}
	}
	out := &Manifest{
		Node:    base.Node,
		Epoch:   d.Epoch,
		HashKey: base.HashKey,
		Classes: base.Classes,
		Shed:    base.Shed,
		Trace:   d.Trace,
	}
	if d.ShedChanged {
		out.Shed = d.Shed
	}
	cur := rangesByKey(base.Assignments)
	removed := rangesByKey(d.Removed)
	added := rangesByKey(d.Added)
	for k, cut := range removed {
		cur[k] = cur[k].Subtract(cut)
	}
	for k, add := range added {
		cur[k] = append(append(hashing.RangeSet(nil), cur[k]...), add...)
	}
	keys := make([]akey, 0, len(cur))
	for k := range cur {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].less(keys[j]) })
	for _, k := range keys {
		out.Assignments = appendAssignment(out.Assignments, k, cur[k])
	}
	return out, nil
}
