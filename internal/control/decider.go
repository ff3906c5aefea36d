package control

import (
	"cmp"
	"fmt"
	"slices"

	"nwdeploy/internal/core"
	"nwdeploy/internal/hashing"
	"nwdeploy/internal/traffic"
)

// Decider executes the per-packet coordination check of Figure 3 from a
// wire manifest, with no dependency on the planner's data structures.
//
// Internally the manifest is flattened at construction into one index,
// grouped by scope: classes sharing a scope share their unit key, so per
// scope slot one unit directory over (k0, k1) addresses the unit's group
// of entries, one per class with a non-empty effective range. Every query
// goes through it: DecideMask performs at most three unit lookups per
// session, and UnitRanges finds its class's entry in the group of the
// class's scope. Entries sit next to their class id, agg slot and (almost
// always single) range bounds; the ranges of every entry live in one
// shared hashing.Arena. A lookup is then an array load
// or two, a scan of a near-always-tiny bucket or group, and a range
// compare — no map hashing, no pointer chase, and no allocation. The
// widths are precomputed at build time in canonical (class,
// sorted-unit-key, ascending-Lo) order, so AssignedWidth and ShedWidth
// are bit-identical however the manifest's assignment slices were
// permuted (map-iteration summation used to make the last ULP vary run
// to run).
//
// A Decider is immutable once NewDecider returns: every method only reads
// it and the session, so it is safe for concurrent use. bro.Run relies on
// that: a helper goroutine calls DecideMask for the sessions ahead while
// the engine may be deciding others.
//
// A manifest has at most 64 classes (checkManifest's bound), so every
// class set is one word: bit c of a mask is class c.
type Decider struct {
	manifest *Manifest
	hasher   hashing.Hasher
	arena    hashing.Arena
	scope    []uint8 // scope slot of each class; len(manifest.Classes)

	// units[s] is scope slot s's unit directory; its groups address
	// contiguous runs of entries. scopeMask[s] is the set of classes with
	// an entry in scope s, letting DecideMask skip scopes no eligible
	// class uses.
	units     [3]unitIndex
	entries   []uentry
	scopeMask [3]uint64

	assignedWidth float64
	shedWidth     float64

	// Eligibility masks. DecideMask resolves the session filter of every
	// class at once — one transport mask fetch, one port-list scan — and
	// then visits only the surviving classes.
	nonEmptyMask uint64   // classes with at least one non-empty entry
	anyTransport uint64   // classes with no transport restriction
	transports   []uint8  // distinct restricted transports
	transMasks   []uint64 // classes restricted to transports[i]
	portlessMask uint64   // classes with no port restriction
	portList     []uint16 // distinct restricted ports
	portMasks    []uint64 // classes listing portList[i]
	// portTab, when set, replaces the portList scan with one probe. It is
	// built only for a manifest that restricts ports, and only when its
	// distinct ports collide nowhere on the low 6 bits (the common case: a
	// handful of well-known ports), so a portless manifest's decider does
	// not carry the table.
	portTab *portTable
}

// portTable direct-maps a port to its class mask on the port's low 6 bits.
type portTable struct {
	key  [64]uint16
	mask [64]uint64
}

// maxGridCells bounds a unit directory's dense (k0, k1) grid. A scope
// whose keys all have k1 = -1 (per-ingress and per-egress: the unit is one
// node) always gets its grid, one cell per node; a per-path scope gets one
// only when its node pairs fit, as an 11-node topology's 121 do.
const maxGridCells = 1024

// unitIndex is one scope slot's unit-key directory. Its units are groups,
// numbered in (k0, k1) order. Small key spaces are a dense grid: the group
// of key (k0, k1) is grid[(k0-minK0)*w1 + k1-minK1], -1 when absent. Any
// other is a two-level bucket: unit keys bucketed densely by their first
// element (a node ID, so the value range is the topology size), each
// bucket holding the second elements of its units, k1-ascending.
type unitIndex struct {
	minK0, minK1 int32
	w0, w1       int32
	grid         []int32
	firstIdx     []int32 // no grid: bucket v spans groups [firstIdx[v], firstIdx[v+1])
	second       []int32 // no grid: k1 of each group
	// groups has one more element than there are units: the last one's lo
	// ends the scope's entries.
	groups []ugroup
}

// ugroup is one unit's run of entries. The fractional entries come first,
// so DecideMask scans only them; a whole entry's verdict needs no hash,
// since every hash lies in [0, 1 − 2⁻³²] and so inside [0, 1).
type ugroup struct {
	whole uint64 // classes whose entry is all of [0, 1)
	frac  uint64 // classes whose entry is a proper part of it
	lo    int32  // entries [lo, fhi) are fractional, [fhi, next group's lo) whole
	fhi   int32
	aggs  uint8 // agg slots (bit a = slot a) of the fractional entries
}

// lookup returns the group of unit key (k0, k1), or -1.
func (ui *unitIndex) lookup(k0, k1 int32) int32 {
	v := k0 - ui.minK0
	if ui.grid != nil {
		w := k1 - ui.minK1
		if uint32(v) >= uint32(ui.w0) || uint32(w) >= uint32(ui.w1) {
			return -1
		}
		return ui.grid[v*ui.w1+w]
	}
	if v < 0 || int(v)+1 >= len(ui.firstIdx) {
		return -1
	}
	for i := ui.firstIdx[v]; i < ui.firstIdx[v+1]; i++ {
		if ui.second[i] == k1 {
			return i
		}
	}
	return -1
}

// uentry is one (class, unit) assignment with a non-empty effective
// range: the class and its agg slot next to the range bounds, so a scan
// touches one compact record per co-located class. Almost every
// assignment is a single contiguous range (the LP splits hash space, it
// rarely fragments it), so the bounds live inline and the arena is only
// consulted for the rare multi-range entry (multi set; the span is always
// valid).
type uentry struct {
	lo, hi float64 // inline bounds; [0,0) when multi
	span   hashing.Span
	class  int32
	agg    uint8
	multi  bool
}

// whole reports whether the entry is one range covering all of [0, 1).
func (e *uentry) whole() bool { return e.lo <= 0 && e.hi >= 1 }

// contains reports whether hash point h falls in the entry's ranges.
func (e *uentry) contains(a *hashing.Arena, h float64) bool {
	return h >= e.lo && h < e.hi || e.multi && a.Contains(e.span, h)
}

// akey is the canonical build-time identity of one (class, unit)
// assignment, with the unit key unpacked into bucket coordinates.
type akey struct {
	class  int
	k0, k1 int32
}

func (k akey) compare(o akey) int {
	if c := cmp.Compare(k.class, o.class); c != 0 {
		return c
	}
	if c := cmp.Compare(k.k0, o.k0); c != 0 {
		return c
	}
	return cmp.Compare(k.k1, o.k1)
}

// appendRanges appends the wire ranges to dst as they are, empty ones
// included.
func appendRanges(dst hashing.RangeSet, ws []WireRange) hashing.RangeSet {
	for _, w := range ws {
		dst = append(dst, hashing.Range(w))
	}
	return dst
}

// NewDecider indexes a manifest for per-packet use. Shed ranges are
// subtracted at index time: the effective assignment a decider enforces is
// Assignments minus Shed, exactly the responsibility the governor kept.
// It panics on a manifest of more than 64 classes, which checkManifest
// rejects before any install.
func NewDecider(m *Manifest) *Decider {
	nClasses := len(m.Classes)
	if nClasses > maxWireClasses {
		panic(fmt.Sprintf("control: NewDecider: manifest has %d classes, more than %d", nClasses, maxWireClasses))
	}
	d := &Decider{
		manifest: m,
		hasher:   hashing.Hasher{Key: m.HashKey},
		scope:    make([]uint8, nClasses),
	}
	for i, c := range m.Classes {
		d.scope[i] = uint8(scopeSlot(core.Scope(c.Scope)))
	}
	// Walk the assignments and the shed in (class, unit-key) order, side
	// by side. Of a duplicated key the last entry wins, and a shed entry
	// cuts the assignment of its key. A class the manifest does not
	// declare has no session filter, so the data plane can never enforce
	// it: no view may count it. An entry left empty is dropped: a unit the
	// node does not hold and one it holds none of answer alike.
	nRanges := 0 // bounds the effective ranges: k cuts add at most k pieces
	for _, as := range [2][]WireAssignment{m.Assignments, m.Shed} {
		for i := range as {
			nRanges += len(as[i].Ranges)
		}
	}
	d.arena.Grow(nRanges)
	// Build-time scratch stays on the stack for manifests of usual size.
	var keyBuf [64]ukey
	var rangeBuf [32]hashing.Range
	keys := keyBuf[:0]
	if len(m.Assignments) > len(keyBuf) {
		keys = make([]ukey, 0, len(m.Assignments))
	}
	asg, shedRuns := newRuns(m.Assignments), newRuns(m.Shed)
	shed := shedRuns
	scratch := hashing.RangeSet(rangeBuf[:0])
	for !asg.done() {
		k := asg.key()
		a := asg.last()
		if k.class < 0 || k.class >= nClasses {
			continue
		}
		for !shed.done() && shed.key().compare(k) < 0 {
			shed.last()
		}
		scratch = appendRanges(scratch[:0], a.Ranges)
		eff := scratch
		if !shed.done() && shed.key() == k {
			split := len(scratch)
			scratch = appendRanges(scratch, shed.last().Ranges)
			n := len(scratch)
			scratch = scratch[:split].AppendSubtract(scratch, scratch[split:n])
			eff = scratch[n:]
		}
		// Width is summed over the raw, sorted effective set before the
		// arena coalesces anything, preserving the sum for manifests with
		// overlapping ranges; ties at one Lo sum in Hi order, so the width
		// is the same for any order of the manifest's ranges.
		sortRanges(eff)
		for _, r := range eff {
			d.assignedWidth += r.Width()
		}
		sp := d.arena.Append(eff)
		if sp.Len() == 0 {
			continue
		}
		agg := uint8(aggSlot(core.Aggregation(m.Classes[k.class].Agg)))
		e := uentry{span: sp, class: int32(k.class), agg: agg, multi: sp.Len() > 1}
		if !e.multi {
			var one [1]hashing.Range
			r := d.arena.AppendRanges(one[:0], sp)[0]
			e.lo, e.hi = r.Lo, r.Hi
		}
		keys = append(keys, ukey{k.k0, k.k1, d.scope[k.class], e})
	}
	d.buildMasks(m)
	d.buildUnitIndex(keys)
	// ShedWidth in the same canonical order, over the raw shed ranges
	// (including entries that matched no assignment).
	for shed = shedRuns; !shed.done(); {
		rs := appendRanges(scratch[:0], shed.last().Ranges)
		sortRanges(rs)
		for _, r := range rs {
			d.shedWidth += r.Width()
		}
		scratch = rs
	}
	return d
}

// TraceContext returns the trace context of the publish that produced the
// manifest this decider enforces, or nil when the controller ran
// untraced. Agents attach it to their fetch events, which is how one
// epoch's trace crosses the wire.
func (d *Decider) TraceContext() *WireTrace { return d.manifest.Trace }

// ShedWidth returns the total hash-space width the manifest's shed section
// removed from this node's assignment — the audit-side measure of how much
// responsibility the governor gave up. The sum is computed once at build
// time in canonical key order, so it is reproducible for any permutation
// of the manifest's shed slice.
func (d *Decider) ShedWidth() float64 { return d.shedWidth }

// Epoch reports the manifest generation this decider enforces.
func (d *Decider) Epoch() uint64 { return d.manifest.Epoch }

// entry finds the class's entry for unit key (k0, k1) in the group of
// the class's scope, or nil.
func (d *Decider) entry(class int, k0, k1 int32) *uentry {
	ui := &d.units[d.scope[class]]
	g := ui.lookup(k0, k1)
	if g < 0 {
		return nil
	}
	for i := ui.groups[g].lo; i < ui.groups[g+1].lo; i++ {
		if d.entries[i].class == int32(class) {
			return &d.entries[i]
		}
	}
	return nil
}

// UnitRanges appends to dst the ranges of the (class, unit-key)
// coordination component this manifest has the node enforce, shed already
// subtracted, sorted by Lo. It returns the extended slice and allocates
// only to grow dst, so audits and the runtime's governing can reuse one
// buffer across units.
func (d *Decider) UnitRanges(dst hashing.RangeSet, class int, key [2]int) hashing.RangeSet {
	if class < 0 || class >= len(d.scope) {
		return dst
	}
	if e := d.entry(class, int32(key[0]), int32(key[1])); e != nil {
		return d.arena.AppendRanges(dst, e.span)
	}
	return dst
}

// AssignedWidth returns the total hash-space width the manifest assigns
// to the node, summed across its (class, unit) assignments — the node's
// share of the network-wide analysis work, and the quantity the cluster
// runtime exports as a per-agent coverage gauge. The sum is computed once
// at build time in canonical (class, unit-key, ascending-Lo) order, so it
// is bit-identical for any permutation of the manifest's assignment slice
// (the previous map-backed implementation summed in iteration order and
// could drift by an ULP between runs).
func (d *Decider) AssignedWidth() float64 { return d.assignedWidth }

// buildMasks precomputes the per-class eligibility bitmasks DecideMask
// uses.
func (d *Decider) buildMasks(m *Manifest) {
	for ci := range d.scope {
		bit := uint64(1) << uint(ci)
		c := &m.Classes[ci]
		if c.Transport == 0 {
			d.anyTransport |= bit
		} else {
			found := false
			for i, tr := range d.transports {
				if tr == c.Transport {
					d.transMasks[i] |= bit
					found = true
					break
				}
			}
			if !found {
				d.transports = append(d.transports, c.Transport)
				d.transMasks = append(d.transMasks, bit)
			}
		}
		if len(c.Ports) == 0 {
			d.portlessMask |= bit
		}
		for _, p := range c.Ports {
			found := false
			for i, q := range d.portList {
				if q == p {
					d.portMasks[i] |= bit
					found = true
					break
				}
			}
			if !found {
				d.portList = append(d.portList, p)
				d.portMasks = append(d.portMasks, bit)
			}
		}
	}
	if len(d.portList) == 0 {
		return
	}
	var pt portTable // on the stack until it proves collision-free
	for i, p := range d.portList {
		slot := p & 63
		if pt.mask[slot] != 0 && pt.key[slot] != p {
			return // collision; keep the list scan
		}
		pt.key[slot] = p
		pt.mask[slot] |= d.portMasks[i]
	}
	d.portTab = new(portTable)
	*d.portTab = pt
}

// ukey is one entry of the index while it is built: its scope and unit
// key next to the entry itself.
type ukey struct {
	k0, k1 int32
	sc     uint8
	e      uentry
}

func (k *ukey) sameUnit(o *ukey) bool { return k.sc == o.sc && k.k0 == o.k0 && k.k1 == o.k1 }

// scopeShape is what buildUnitIndex learns of one scope before it
// allocates: its entries [lo, hi) of the sorted keys, its unit count and
// its key bounds.
type scopeShape struct {
	lo, hi, units          int
	min0, max0, min1, max1 int32
}

// grid reports whether the scope's directory is a dense grid, and its
// dimensions.
func (s *scopeShape) grid() (w0, w1 int, ok bool) {
	w0, w1 = int(s.max0)-int(s.min0)+1, int(s.max1)-int(s.min1)+1
	return w0, w1, w1 == 1 || w0*w1 <= maxGridCells
}

// cols is the int32 cells the scope's directory takes.
func (s *scopeShape) cols() int {
	if s.units == 0 {
		return 0
	}
	if w0, w1, ok := s.grid(); ok {
		return w0 * w1
	}
	return int(s.max0-s.min0) + 2 + s.units
}

// buildUnitIndex sorts the entries into (scope, unit key, fractional
// first, class) order and builds each scope's directory over them. The
// entries, the groups of all three scopes and their directory columns
// take one allocation each.
func (d *Decider) buildUnitIndex(keys []ukey) {
	slices.SortFunc(keys, func(a, b ukey) int {
		if c := cmp.Compare(a.sc, b.sc); c != 0 {
			return c
		}
		if c := cmp.Compare(a.k0, b.k0); c != 0 {
			return c
		}
		if c := cmp.Compare(a.k1, b.k1); c != 0 {
			return c
		}
		if aw, bw := a.e.whole(), b.e.whole(); aw != bw {
			if aw {
				return 1
			}
			return -1
		}
		return cmp.Compare(a.e.class, b.e.class)
	})
	var shapes [3]scopeShape
	for i := range keys {
		k := &keys[i]
		s := &shapes[k.sc]
		if s.units == 0 {
			*s = scopeShape{lo: i, min0: k.k0, min1: k.k1, max1: k.k1}
		}
		s.hi, s.max0 = i+1, k.k0
		s.min1, s.max1 = min(s.min1, k.k1), max(s.max1, k.k1)
		if i == 0 || !k.sameUnit(&keys[i-1]) {
			s.units++
		}
	}
	nGroups, nCols := 0, 0
	for sc := range shapes {
		if shapes[sc].units > 0 {
			nGroups += shapes[sc].units + 1
			nCols += shapes[sc].cols()
		}
	}
	d.entries = make([]uentry, len(keys))
	for i := range keys {
		d.entries[i] = keys[i].e
	}
	groups := make([]ugroup, nGroups)
	cols := make([]int32, nCols)
	for sc := range shapes {
		s := &shapes[sc]
		if s.units == 0 {
			continue
		}
		ui := &d.units[sc]
		ui.groups, groups = groups[:s.units+1:s.units+1], groups[s.units+1:]
		n := s.cols()
		d.scopeMask[sc] = ui.build(keys[s.lo:s.hi], s, cols[:n:n])
		cols = cols[n:]
		d.nonEmptyMask |= d.scopeMask[sc]
	}
}

// build fills a scope's directory and groups from its entries, seg, sorted
// by unit key and starting at entry s.lo, in cols, and the groups' class
// masks, and returns their union.
func (ui *unitIndex) build(seg []ukey, s *scopeShape, cols []int32) uint64 {
	ui.minK0, ui.minK1 = s.min0, s.min1
	w0, w1, grid := s.grid()
	if grid {
		ui.w0, ui.w1 = int32(w0), int32(w1)
		ui.grid = cols
		for i := range ui.grid {
			ui.grid[i] = -1
		}
	} else {
		ui.firstIdx, ui.second = cols[:w0+1:w0+1], cols[w0+1:]
	}
	var union uint64
	u := -1
	for i := range seg {
		k := &seg[i]
		if i == 0 || !k.sameUnit(&seg[i-1]) {
			u++
			ui.groups[u].lo = int32(s.lo + i)
			ui.groups[u].fhi = int32(s.lo + i)
			if grid {
				ui.grid[int(k.k0-s.min0)*w1+int(k.k1-s.min1)] = int32(u)
			} else {
				ui.second[u] = k.k1
				ui.firstIdx[k.k0-s.min0+1]++ // the prefix sum below makes it bucket b's start
			}
		}
		g := &ui.groups[u]
		bit := uint64(1) << uint(k.e.class)
		if k.e.whole() {
			g.whole |= bit
		} else {
			g.frac |= bit
			g.fhi = int32(s.lo + i + 1)
			g.aggs |= 1 << k.e.agg
		}
		union |= bit
	}
	ui.groups[u+1].lo = int32(s.hi)
	for b := 1; b < len(ui.firstIdx); b++ {
		ui.firstIdx[b] += ui.firstIdx[b-1]
	}
	return union
}

// eligibleMask resolves every class's transport and port filter for one
// session in a handful of word operations.
func (d *Decider) eligibleMask(t hashing.FiveTuple) uint64 {
	em := d.anyTransport
	for i, tr := range d.transports {
		if tr == t.Proto {
			em |= d.transMasks[i]
		}
	}
	ports := d.portlessMask
	if pt := d.portTab; pt != nil {
		if slot := t.DstPort & 63; pt.key[slot] == t.DstPort {
			ports |= pt.mask[slot]
		}
	} else {
		for i, p := range d.portList {
			if p == t.DstPort {
				ports |= d.portMasks[i]
			}
		}
	}
	return em & ports & d.nonEmptyMask
}

// allSessionKeys resolves the session's coordination-unit keys (the
// GETCOORDUNIT step of Figure 3) of all three scopes at once,
// branch-predictably (computing an unneeded key is two register moves; a
// mispredicted memoization branch costs more).
func allSessionKeys(src, dst int) [3][2]int32 {
	a, b := src, dst
	if a > b {
		a, b = b, a
	}
	return [3][2]int32{
		{int32(a), int32(b)}, // PerPath
		{int32(src), -1},     // PerIngress
		{int32(dst), -1},     // PerEgress
	}
}

// scopeSlot and aggSlot map the class enums onto small dense memo slots,
// with unknown values collapsing onto the planner's defaults (PerPath,
// BySession).
func scopeSlot(sc core.Scope) int {
	switch sc {
	case core.PerIngress:
		return 1
	case core.PerEgress:
		return 2
	default:
		return 0
	}
}

func aggSlot(agg core.Aggregation) int {
	switch agg {
	case core.ByFlow:
		return 1
	case core.BySource:
		return 2
	case core.ByDestination:
		return 3
	default:
		return 0
	}
}

// DecideMask runs the Figure 3 check for every class of the manifest in
// one pass, packed into one word: bit c set means class c analyzes the
// session. Unit resolution follows the class scope exactly as the
// planner's Instance.UnitFor does, but using only the session's
// addressing (the node-prefix convention stands in for the paper's
// prefix-to-ingress configuration files). It looks up the session's unit
// once per scope an eligible class uses; of each hit group, the eligible
// classes with a whole entry are in at once, and only when an eligible
// class has a fractional entry does it hash the session (once per
// aggregation those entries use) and scan them. It is the data plane's
// form — the engine ANDs the word with its own match mask — and the
// pointer argument spares the per-call 64-byte Session copy a by-value
// argument pays. The session is only read. ok is always true: every
// manifest a Decider indexes fits one word. Allocation-free.
func (d *Decider) DecideMask(s *traffic.Session) (mask uint64, ok bool) {
	em := d.eligibleMask(s.Tuple)
	if em == 0 {
		return 0, true
	}
	// Phase 1: resolve the unit lookups, take the whole entries, and
	// remember each group with an eligible fractional entry and which agg
	// slots its fractional entries use.
	ak := allSessionKeys(s.Src, s.Dst)
	var glo, ghi [3]int32
	var need uint8
	var res uint64
	for sc := 0; sc < 3; sc++ {
		if em&d.scopeMask[sc] == 0 {
			continue // no eligible class uses this scope
		}
		ui := &d.units[sc]
		gi := ui.lookup(ak[sc][0], ak[sc][1])
		if gi < 0 {
			continue
		}
		g := &ui.groups[gi]
		res |= g.whole & em
		if g.frac&em != 0 {
			glo[sc], ghi[sc] = g.lo, g.fhi
			need |= g.aggs
		}
	}
	if need == 0 {
		return res, true
	}
	// Phase 2: compute exactly the hashes the fractional entries need,
	// back to back. Each hash is a serial mix chain, but the chains are
	// mutually independent, so issued together they overlap in flight;
	// resolved lazily inside the entry scan below they would serialize.
	var hashes [4]float64
	if need&1 != 0 {
		hashes[0] = d.hasher.Session(s.Tuple)
	}
	if need&2 != 0 {
		hashes[1] = d.hasher.Flow(s.Tuple)
	}
	if need&4 != 0 {
		hashes[2] = d.hasher.Source(s.Tuple)
	}
	if need&8 != 0 {
		hashes[3] = d.hasher.Destination(s.Tuple)
	}
	// Phase 3: scan the remembered fractional entries (other scopes have
	// glo == ghi), skipping the ineligible ones before the hash load and
	// bounds compare.
	for sc := 0; sc < 3; sc++ {
		for i := glo[sc]; i < ghi[sc]; i++ {
			e := &d.entries[i]
			bit := uint64(1) << uint(e.class)
			if em&bit != 0 && e.contains(&d.arena, hashes[e.agg]) {
				res |= bit
			}
		}
	}
	return res, true
}
