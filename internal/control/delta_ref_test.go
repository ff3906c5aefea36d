package control

import (
	"errors"
	"fmt"
	"reflect"
	"sort"

	"nwdeploy/internal/hashing"
	"nwdeploy/internal/ledger"
)

// This file keeps the map-based wire kernels the sorted-merge ones in
// delta.go and ledgerenc.go replaced — DiffManifests, ApplyDelta and
// CanonicalAssignments folding each assignment slice into a map of per-key
// range sets, sorting the keys by reflection and every key's ranges
// separately — as the test-only oracle TestWireKernelsMatchReference and
// FuzzApplyDelta compare against. One normalization: ranges that share a
// Lo are ordered by Hi (a stable sort by (Lo, Hi)), where the replaced
// code sorted by Lo alone and left such ties in whatever order an unstable
// sort produced. Everything else is the replaced code as it was.

// refRangesByKey folds an assignment slice into per-key range sets.
// Duplicate keys concatenate.
func refRangesByKey(as []WireAssignment) map[akey]hashing.RangeSet {
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

// refSortedKeys returns the union of both maps' keys in canonical order.
func refSortedKeys(a, b map[akey]hashing.RangeSet) []akey {
	keys := make([]akey, 0, len(a)+len(b))
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, dup := a[k]; !dup {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].compare(keys[j]) < 0 })
	return keys
}

// refSortRanges is the one normalization: Lo-ascending, ties by Hi.
func refSortRanges(rs hashing.RangeSet) {
	sort.SliceStable(rs, func(i, j int) bool {
		if rs[i].Lo != rs[j].Lo {
			return rs[i].Lo < rs[j].Lo
		}
		return rs[i].Hi < rs[j].Hi
	})
}

// refAppendAssignment converts one key's range set to wire form and
// appends it, dropping empty entries.
func refAppendAssignment(out []WireAssignment, k akey, rs hashing.RangeSet) []WireAssignment {
	refSortRanges(rs)
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

// refDiffManifests is the map-based DiffManifests.
func refDiffManifests(old, new *Manifest) (*WireDelta, bool) {
	if old == nil || new == nil || old.Node != new.Node || old.HashKey != new.HashKey {
		return nil, false
	}
	if !reflect.DeepEqual(old.Classes, new.Classes) {
		return nil, false
	}
	d := &WireDelta{Node: new.Node, BaseEpoch: old.Epoch, Epoch: new.Epoch, Trace: new.Trace}
	oldR, newR := refRangesByKey(old.Assignments), refRangesByKey(new.Assignments)
	for _, k := range refSortedKeys(oldR, newR) {
		o, n := oldR[k], newR[k]
		if added := n.Subtract(o); len(added) > 0 {
			d.Added = refAppendAssignment(d.Added, k, added)
		}
		if removed := o.Subtract(n); len(removed) > 0 {
			d.Removed = refAppendAssignment(d.Removed, k, removed)
		}
	}
	if !reflect.DeepEqual(old.Shed, new.Shed) {
		d.ShedChanged = true
		d.Shed = new.Shed
	}
	return d, true
}

// refApplyDelta is the map-based ApplyDelta.
func refApplyDelta(base *Manifest, d *WireDelta) (*Manifest, error) {
	if base == nil {
		return nil, errors.New("control: applying delta to nil manifest")
	}
	if base.Node != d.Node {
		return nil, fmt.Errorf("control: delta for node %d applied to node %d", d.Node, base.Node)
	}
	if base.Epoch != d.BaseEpoch {
		return nil, fmt.Errorf("%w (have %d, delta base %d)", ErrDeltaGap, base.Epoch, d.BaseEpoch)
	}
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
	cur := refRangesByKey(base.Assignments)
	removed := refRangesByKey(d.Removed)
	added := refRangesByKey(d.Added)
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
	sort.Slice(keys, func(i, j int) bool { return keys[i].compare(keys[j]) < 0 })
	for _, k := range keys {
		out.Assignments = refAppendAssignment(out.Assignments, k, cur[k])
	}
	return out, nil
}

// refCanonicalAssignments is the map-based CanonicalAssignments.
func refCanonicalAssignments(as []WireAssignment) ([]WireAssignment, error) {
	for _, a := range as {
		for _, r := range a.Ranges {
			if !finite(r.Lo) || !finite(r.Hi) {
				return nil, fmt.Errorf("control: assignment class %d unit %v range [%v,%v): %w",
					a.Class, a.Unit, r.Lo, r.Hi, ledger.ErrNonFinite)
			}
		}
	}
	byKey := refRangesByKey(as)
	var out []WireAssignment
	for _, k := range refSortedKeys(byKey, nil) {
		out = refAppendAssignment(out, k, refCoalesceRanges(byKey[k]))
	}
	return out, nil
}

// refCoalesceRanges sorts a range set and merges ranges that overlap or
// share a boundary.
func refCoalesceRanges(rs hashing.RangeSet) hashing.RangeSet {
	if len(rs) == 0 {
		return nil
	}
	s := append(hashing.RangeSet(nil), rs...)
	refSortRanges(s)
	out := s[:1]
	for _, r := range s[1:] {
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
