package hashing

import (
	"cmp"
	"slices"
)

// This file implements the flattened interval index backing the
// per-packet data plane. A manifest's range lookups used to walk small
// heap-allocated RangeSet slices behind a map; at millions of decisions
// per second the pointer chase and the map's key hashing dominate the
// check itself. The Arena instead stores every range of every
// (class, unit) group in one flat float64 slice of interleaved (lo, hi)
// pairs, grouped contiguously and sorted by Lo within each group, so a
// membership query is a bounds lookup plus a branch-free scan or binary
// search over cache-resident data — each probed range sits in one cache
// line, not one per bound — and building it allocates only the backing
// slice, never per-lookup.

// Span addresses one group's ranges inside an Arena: the half-open
// range-index interval [Off, End).
type Span struct {
	Off, End int32
}

// Len reports the number of ranges in the span.
func (sp Span) Len() int { return int(sp.End - sp.Off) }

// Arena is a flattened store of many sorted range groups. The zero value
// is ready to use. Append-only: spans handed out stay valid as the
// backing slice grows.
type Arena struct {
	// bounds interleaves the bounds of range i as (bounds[2i], bounds[2i+1]).
	bounds []float64
}

// Grow makes room for n more ranges, so a builder that knows how many it
// will append allocates once.
func (a *Arena) Grow(n int) {
	if 2*n > cap(a.bounds)-len(a.bounds) {
		b := make([]float64, len(a.bounds), len(a.bounds)+2*n)
		copy(b, a.bounds)
		a.bounds = b
	}
}

// Append adds a group of ranges to the arena and returns its span. Empty
// and inverted ranges are dropped; the kept ranges are sorted by Lo so
// Contains can binary-search. Ranges in one group are expected to be
// disjoint (every producer in this repository — plan manifests, shed
// subtraction — guarantees it); overlapping ranges still answer Contains
// correctly only via the group's coalesced form, so Append merges any
// overlapping ranges it is given. Width bookkeeping that must preserve
// double-counting therefore happens before Append (see control.NewDecider).
// A group already in Lo order, the usual case, is read in place; any
// other is sorted in a copy, leaving the caller's slice untouched.
func (a *Arena) Append(rs RangeSet) Span {
	off := int32(len(a.bounds) / 2)
	byLo := func(x, y Range) int { return cmp.Compare(x.Lo, y.Lo) }
	if !slices.IsSortedFunc(rs, byLo) {
		tmp := make(RangeSet, 0, len(rs))
		for _, r := range rs {
			if !r.IsEmpty() {
				tmp = append(tmp, r)
			}
		}
		slices.SortFunc(tmp, byLo)
		rs = tmp
	}
	for _, r := range rs {
		if r.IsEmpty() {
			continue
		}
		if n := len(a.bounds); n > int(off)*2 && r.Lo <= a.bounds[n-1] {
			// Overlapping or touching the previous range: extend it. For
			// disjoint input this never fires; for overlapping input it
			// keeps binary search sound.
			if r.Hi > a.bounds[n-1] {
				a.bounds[n-1] = r.Hi
			}
			continue
		}
		a.bounds = append(a.bounds, r.Lo, r.Hi)
	}
	return Span{Off: off, End: int32(len(a.bounds) / 2)}
}

// Contains reports whether x falls in any range of the span. Ranges are
// half-open [lo, hi), matching Range.Contains.
func (a *Arena) Contains(sp Span, x float64) bool {
	lo, hi := int(sp.Off), int(sp.End)
	n := hi - lo
	b := a.bounds
	if n <= 4 {
		// Tiny groups (the common case: one or two ranges per unit) are
		// faster to scan than to bisect.
		for i := lo; i < hi; i++ {
			if x >= b[2*i] && x < b[2*i+1] {
				return true
			}
		}
		return false
	}
	// Binary search: the last range with Lo <= x is the only candidate,
	// because ranges within a group are disjoint and sorted.
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b[2*mid] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	i := lo - 1
	return i >= int(sp.Off) && x < b[2*i+1]
}

// AppendRanges appends the span's ranges to dst and returns the extended
// slice (for audits and tests; not a hot path).
func (a *Arena) AppendRanges(dst RangeSet, sp Span) RangeSet {
	for i := sp.Off; i < sp.End; i++ {
		dst = append(dst, Range{Lo: a.bounds[2*i], Hi: a.bounds[2*i+1]})
	}
	return dst
}
