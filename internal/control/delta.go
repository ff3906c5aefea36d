package control

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

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

// The wire kernels — DiffManifests, ApplyDelta, CanonicalAssignments and
// NewDecider — all group assignments by (class, unit key) and visit the
// groups in key order. Each orders its inputs once (a stable sort, skipped
// when the slice is already in key order, as every manifest the controller
// builds and every ApplyDelta result is) and then walks them side by side
// in one linear merge, collecting a group's ranges into a scratch buffer:
// no map, and one backing array per output instead of one slice per key.

// keyOf is the key an assignment is grouped under: its class and unit key,
// the components truncated to 32 bits as the decider's index holds them.
func keyOf(a *WireAssignment) akey {
	return akey{a.Class, int32(a.Unit[0]), int32(a.Unit[1])}
}

// runs walks an assignment slice in key order, one run of equal keys at a
// time. Entries of one key keep their slice order.
type runs struct {
	as  []WireAssignment
	ord []int32 // indices into as in key order; nil when as already is
	i   int     // position of the current run's first entry
}

func newRuns(as []WireAssignment) runs {
	r := runs{as: as}
	for i := 1; i < len(as); i++ {
		if keyOf(&as[i-1]).compare(keyOf(&as[i])) > 0 {
			r.ord = make([]int32, len(as))
			for j := range r.ord {
				r.ord[j] = int32(j)
			}
			slices.SortStableFunc(r.ord, func(a, b int32) int { return keyOf(&as[a]).compare(keyOf(&as[b])) })
			break
		}
	}
	return r
}

func (r *runs) at(i int) *WireAssignment {
	if r.ord != nil {
		return &r.as[r.ord[i]]
	}
	return &r.as[i]
}

func (r *runs) done() bool { return r.i >= len(r.as) }

// key is the current run's key; the walk must not be done.
func (r *runs) key() akey { return keyOf(r.at(r.i)) }

// minKey is the least current key of the runs that are not done; at least
// one must not be.
func minKey(rs ...*runs) akey {
	var k akey
	found := false
	for _, r := range rs {
		if !r.done() {
			if rk := r.key(); !found || rk.compare(k) < 0 {
				k, found = rk, true
			}
		}
	}
	return k
}

// last moves past the current run and returns its last entry.
func (r *runs) last() *WireAssignment {
	k := r.key()
	for r.i++; !r.done() && r.key() == k; r.i++ {
	}
	return r.at(r.i - 1)
}

// take appends the non-empty ranges of key k's run, entry by entry, to dst
// and moves past it; when the current run has another key (or the walk is
// done) it appends nothing.
func (r *runs) take(dst hashing.RangeSet, k akey) hashing.RangeSet {
	for ; !r.done() && r.key() == k; r.i++ {
		for _, w := range r.at(r.i).Ranges {
			if w.Hi > w.Lo {
				dst = append(dst, hashing.Range(w))
			}
		}
	}
	return dst
}

// cmpRange orders ranges Lo-ascending, ties by Hi.
func cmpRange(a, b hashing.Range) int {
	if c := cmp.Compare(a.Lo, b.Lo); c != 0 {
		return c
	}
	return cmp.Compare(a.Hi, b.Hi)
}

// sortRanges puts rs in cmpRange order, equal ranges keeping their order.
func sortRanges(rs hashing.RangeSet) {
	if !slices.IsSortedFunc(rs, cmpRange) {
		slices.SortStableFunc(rs, cmpRange)
	}
}

// assignBuilder collects one output assignment slice key by key: each
// key's ranges are appended to pieces, then close seals them. Its methods
// take and return it by value, which lets a caller keep its buffers on the
// stack.
type assignBuilder struct {
	keys   []akey
	ends   []int32 // ends[i] is where keys[i]'s ranges end in pieces
	pieces hashing.RangeSet
}

// newBuilder starts a builder on caller-provided buffers.
func newBuilder(keys []akey, ends []int32, pieces hashing.RangeSet) assignBuilder {
	return assignBuilder{keys: keys[:0], ends: ends[:0], pieces: pieces[:0]}
}

// start is where the ranges of the key being built begin in pieces.
func (b assignBuilder) start() int {
	if n := len(b.ends); n > 0 {
		return int(b.ends[n-1])
	}
	return 0
}

// close seals the ranges appended since the last close as key k's,
// sorted; a key with none is dropped.
func (b assignBuilder) close(k akey) assignBuilder {
	tail := b.pieces[b.start():]
	if len(tail) == 0 {
		return b
	}
	sortRanges(tail)
	b.keys = append(b.keys, k)
	b.ends = append(b.ends, int32(len(b.pieces)))
	return b
}

// wire returns the built assignments (nil when there are none), their
// ranges sharing one backing array.
func (b assignBuilder) wire() []WireAssignment {
	if len(b.keys) == 0 {
		return nil
	}
	out := make([]WireAssignment, len(b.keys))
	back := make([]WireRange, len(b.pieces))
	for i, r := range b.pieces {
		back[i] = WireRange(r)
	}
	lo := int32(0)
	for i, k := range b.keys {
		hi := b.ends[i]
		out[i] = WireAssignment{Class: k.class, Unit: [2]int{int(k.k0), int(k.k1)}, Ranges: back[lo:hi:hi]}
		lo = hi
	}
	return out
}

// classesEqual and assignmentsEqual are reflect.DeepEqual on
// the wire types, field by field: a nil slice differs from an empty one,
// floats compare with ==, and two slices of one length starting at the
// same element are equal without a look at their contents.
func classesEqual(a, b []WireClass) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	if len(a) == 0 || &a[0] == &b[0] {
		return true
	}
	for i := range a {
		x, y := &a[i], &b[i]
		if x.Name != y.Name || x.Scope != y.Scope || x.Agg != y.Agg || x.Transport != y.Transport ||
			(x.Ports == nil) != (y.Ports == nil) || !slices.Equal(x.Ports, y.Ports) {
			return false
		}
	}
	return true
}

func assignmentsEqual(a, b []WireAssignment) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	if len(a) == 0 || &a[0] == &b[0] {
		return true
	}
	for i := range a {
		x, y := a[i].Ranges, b[i].Ranges
		if a[i].Class != b[i].Class || a[i].Unit != b[i].Unit || (x == nil) != (y == nil) || len(x) != len(y) ||
			len(x) > 0 && &x[0] != &y[0] && !slices.Equal(x, y) {
			return false
		}
	}
	return true
}

// DiffManifests computes the delta that rewrites old into new. It returns
// (nil, false) when the pair cannot be expressed as a delta — different
// nodes, a hash-key rotation, or a changed class table — in which case the
// caller must ship a full manifest. All range boundaries in the result are
// copies of boundaries already present in old or new (set subtraction
// introduces no new float values), so delta application is exact.
// Duplicate keys in either manifest concatenate their ranges.
func DiffManifests(old, new *Manifest) (*WireDelta, bool) {
	if old == nil || new == nil || old.Node != new.Node || old.HashKey != new.HashKey {
		return nil, false
	}
	if !classesEqual(old.Classes, new.Classes) {
		return nil, false
	}
	d := &WireDelta{Node: new.Node, BaseEpoch: old.Epoch, Epoch: new.Epoch, Trace: new.Trace}
	o, n := newRuns(old.Assignments), newRuns(new.Assignments)
	var ka, kr [8]akey
	var ea, er [8]int32
	var ra, rr, rs [16]hashing.Range
	added, removed := newBuilder(ka[:], ea[:], ra[:]), newBuilder(kr[:], er[:], rr[:])
	scratch := hashing.RangeSet(rs[:0])
	for !o.done() || !n.done() {
		k := minKey(&o, &n)
		scratch = o.take(scratch[:0], k)
		split := len(scratch)
		scratch = n.take(scratch, k)
		or, nr := scratch[:split], scratch[split:]
		added.pieces = nr.AppendSubtract(added.pieces, or)
		added = added.close(k)
		removed.pieces = or.AppendSubtract(removed.pieces, nr)
		removed = removed.close(k)
	}
	d.Added, d.Removed = added.wire(), removed.wire()
	if !assignmentsEqual(old.Shed, new.Shed) {
		d.ShedChanged = true
		d.Shed = new.Shed
	}
	return d, true
}

// ApplyDelta rewrites base (the manifest of d.BaseEpoch) into the manifest
// of d.Epoch. base is not mutated. The result's assignments are in
// canonical (class, unit-key) order with Lo-ascending ranges (ties by Hi);
// its verdict behavior under Decider equals a full fetch of the target
// epoch exactly, because every boundary value is copied, never recomputed.
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
	// Per key: the base's ranges minus the removed ones, then the added
	// ones appended.
	cur, rem, add := newRuns(base.Assignments), newRuns(d.Removed), newRuns(d.Added)
	var kb [16]akey
	var eb [16]int32
	var rb, rs [32]hashing.Range
	b := newBuilder(kb[:], eb[:], rb[:])
	scratch := hashing.RangeSet(rs[:0])
	for !cur.done() || !rem.done() || !add.done() {
		k := minKey(&cur, &rem, &add)
		scratch = cur.take(scratch[:0], k)
		split := len(scratch)
		scratch = rem.take(scratch, k)
		b.pieces = scratch[:split].AppendSubtract(b.pieces, scratch[split:])
		b.pieces = add.take(b.pieces, k)
		b = b.close(k)
	}
	out.Assignments = b.wire()
	return out, nil
}
