package control

import (
	"cmp"
	"slices"

	"nwdeploy/internal/core"
	"nwdeploy/internal/hashing"
	"nwdeploy/internal/traffic"
)

// Decider executes the per-packet coordination check of Figure 3 from a
// wire manifest, with no dependency on the planner's data structures.
//
// Internally the manifest is flattened at construction into a two-level
// bucket index: per class, a dense bucket array keyed by the unit key's
// first element addresses a contiguous group of (second element, span)
// entries, whose spans point into contiguous sorted range groups in one
// shared hashing.Arena. A per-packet lookup is then two array loads, a
// scan of a near-always-tiny bucket, and a cache-resident range probe —
// no map hashing, no slice-of-slices pointer chase, and no allocation.
// The widths are precomputed at build time in canonical (class,
// sorted-unit-key, ascending-Lo) order, so AssignedWidth and ShedWidth
// are bit-identical however the manifest's assignment slices were
// permuted (map-iteration summation used to make the last ULP vary run
// to run).
//
// A Decider is immutable once NewDecider returns: every method only reads
// it and the session, so it is safe for concurrent use. bro.Run relies on
// that: a helper goroutine calls DecideMask for the sessions ahead while
// the engine may be deciding others, or asking ShouldAnalyze.
type Decider struct {
	manifest *Manifest
	hasher   hashing.Hasher
	arena    hashing.Arena
	classes  []classIndex // indexed by class; len(manifest.Classes)
	meta     []classMeta  // indexed by class; len(manifest.Classes)

	// units and entries are the batch path's scope-grouped view of the same
	// assignments: per scope slot, one unit directory over (k0, k1) whose
	// hits address a contiguous group of (class bit, agg slot, span)
	// entries. DecideMask then performs at most three unit lookups per
	// session — every class sharing a scope shares the lookup — where the
	// per-class view needs one lookup per eligible class (the paper's
	// 21-module sweep has a dozen duplicate-scope modules). scopeMask[s]
	// marks the classes of scope s, letting the batch loop skip scopes no
	// eligible class uses.
	units     [3]unitIndex
	entries   []uentry
	scopeMask [3]uint64
	// scopeAggs[s] is the set of agg slots (bit a = slot a) used by the
	// entries of scope s. After the unit lookups resolve, DecideMask
	// computes exactly the hashes the hit scopes need, back to back: the
	// hash chains are serially dependent internally but independent of
	// each other, so issued together they overlap in flight instead of
	// serializing behind lazy checks inside the entry scan.
	scopeAggs [3]uint8

	assignedWidth float64
	shedWidth     float64

	// Eligibility masks (manifests with at most 64 classes, i.e. all of
	// them in practice): bit ci of a mask marks class ci. DecideMask
	// resolves the session filter of every class at once — one transport
	// mask fetch, one port-list scan — and then visits only the surviving
	// classes, instead of running each class's transport/port checks in
	// turn. maskable gates the path.
	maskable     bool
	nonEmptyMask uint64   // classes with at least one assignment
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

// classIndex is one class's unit-key directory. Unit keys [2]int are
// bucketed densely by their first element (a node ID, so the value range
// is the topology size); each bucket holds the second elements and spans
// of its units, k1-ascending, almost always one or a handful of entries
// (per-ingress/egress units have exactly one, k1 = -1; per-path units
// group the paths through one endpoint).
type classIndex struct {
	minK0    int32
	firstIdx []int32 // len = range(k0)+1; bucket v spans entries [firstIdx[v], firstIdx[v+1])
	second   []int32
	spans    []hashing.Span
}

// lookup finds the range group for unit key (k0, k1).
func (ci *classIndex) lookup(k0, k1 int32) (hashing.Span, bool) {
	v := k0 - ci.minK0
	if v < 0 || int(v)+1 >= len(ci.firstIdx) {
		return hashing.Span{}, false
	}
	for i := ci.firstIdx[v]; i < ci.firstIdx[v+1]; i++ {
		if ci.second[i] == k1 {
			return ci.spans[i], true
		}
	}
	return hashing.Span{}, false
}

// empty reports whether the class has no assignments at all.
func (ci *classIndex) empty() bool { return len(ci.spans) == 0 }

// unitIndex is one scope slot's unit-key directory for the batch path:
// the same dense two-level bucket shape as classIndex, but a hit addresses
// the unit's contiguous entry group [entLo[i], entLo[i+1]) in
// Decider.entries instead of a single span.
type unitIndex struct {
	minK0    int32
	firstIdx []int32 // len = range(k0)+1; bucket v spans units [firstIdx[v], firstIdx[v+1])
	second   []int32
	entLo    []int32 // len = len(second)+1
	// flat is set when every unit key in the scope is (k0, -1) — always
	// true for per-ingress and per-egress scopes, whose unit is a single
	// node. flat[v] is then the unit at bucket v (-1 when absent) and
	// lookup is two dependent loads with no bucket scan.
	flat []int32
}

// lookup finds the entry group for unit key (k0, k1).
func (ui *unitIndex) lookup(k0, k1 int32) (int32, int32, bool) {
	v := k0 - ui.minK0
	if ui.flat != nil {
		if v < 0 || int(v) >= len(ui.flat) || k1 != -1 {
			return 0, 0, false
		}
		i := ui.flat[v]
		if i < 0 {
			return 0, 0, false
		}
		return ui.entLo[i], ui.entLo[i+1], true
	}
	if v < 0 || int(v)+1 >= len(ui.firstIdx) {
		return 0, 0, false
	}
	for i := ui.firstIdx[v]; i < ui.firstIdx[v+1]; i++ {
		if ui.second[i] == k1 {
			return ui.entLo[i], ui.entLo[i+1], true
		}
	}
	return 0, 0, false
}

// uentry is one (class, unit) assignment in the scope-grouped view: the
// class's mask bit and agg slot precomputed next to its range bounds, so
// the batch loop touches one compact record per co-located class. Almost
// every assignment is a single contiguous range (the LP splits hash space,
// it rarely fragments it), so the bounds live inline and the arena is only
// consulted for the rare multi-range entry (multi set, span valid).
type uentry struct {
	lo, hi float64 // inline bounds; [0,0) when multi
	bit    uint64
	span   hashing.Span
	agg    uint8
	multi  bool
}

// classMeta is the per-class session filter, copied out of the wire form
// at build time so the per-packet path reads one compact struct instead
// of chasing the manifest's WireClass slices.
type classMeta struct {
	transport uint8
	scopeSlot uint8
	aggSlot   uint8
	nPorts    uint8
	ports     [4]uint16 // inline fast path; portsExt when nPorts > 4
	portsExt  []uint16
}

func (cm *classMeta) matches(t hashing.FiveTuple) bool {
	if cm.transport != 0 && t.Proto != cm.transport {
		return false
	}
	if cm.nPorts == 0 {
		return true
	}
	n := int(cm.nPorts)
	if n <= len(cm.ports) {
		for i := 0; i < n; i++ {
			if cm.ports[i] == t.DstPort {
				return true
			}
		}
		return false
	}
	for _, p := range cm.portsExt {
		if p == t.DstPort {
			return true
		}
	}
	return false
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
func NewDecider(m *Manifest) *Decider {
	d := &Decider{
		manifest: m,
		hasher:   hashing.Hasher{Key: m.HashKey},
	}
	// Walk the assignments and the shed in (class, unit-key) order, side
	// by side. Of a duplicated key the last entry wins, and a shed entry
	// cuts the assignment of its key. A class the manifest does not
	// declare has no session filter, so the data plane can never enforce
	// it: no view may count it. The walk yields each class's entries
	// contiguous and unit-key ascending, so every class's second and span
	// columns are subslices of two shared backing arrays — one allocation
	// each, and all classes' directories cache-adjacent for the batch
	// path, which walks several per session.
	nClasses := len(m.Classes)
	nRanges := 0 // bounds the effective ranges: k cuts add at most k pieces
	for _, as := range [2][]WireAssignment{m.Assignments, m.Shed} {
		for i := range as {
			nRanges += len(as[i].Ranges)
		}
	}
	d.arena.Grow(nRanges)
	d.classes = make([]classIndex, nClasses)
	allSecond := make([]int32, 0, len(m.Assignments))
	allSpans := make([]hashing.Span, 0, len(m.Assignments))
	// Build-time scratch stays on the stack for manifests of usual size.
	var k0Buf [64]int32
	var startBuf [16]int
	var rangeBuf [32]hashing.Range
	allK0 := k0Buf[:0]
	if len(m.Assignments) > len(k0Buf) {
		allK0 = make([]int32, 0, len(m.Assignments))
	}
	classStart := startBuf[:0]
	if nClasses+1 > len(startBuf) {
		classStart = make([]int, 0, nClasses+1)
	}
	classStart = classStart[:nClasses+1]
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
		allSecond = append(allSecond, k.k1)
		allSpans = append(allSpans, d.arena.Append(eff))
		allK0 = append(allK0, k.k0)
		classStart[k.class+1] = len(allSecond)
	}
	for c := 1; c <= nClasses; c++ { // empty classes inherit the prior end
		if classStart[c] < classStart[c-1] {
			classStart[c] = classStart[c-1]
		}
	}
	// Build each class's dense bucket array from its (ascending) k0 column;
	// the bucket arrays likewise share one backing allocation.
	nBuckets := 0
	for c := 0; c < nClasses; c++ {
		k0s := allK0[classStart[c]:classStart[c+1]]
		if len(k0s) > 0 {
			nBuckets += int(k0s[len(k0s)-1]-k0s[0]) + 2
		}
	}
	allBuckets := make([]int32, 0, nBuckets)
	for c := 0; c < nClasses; c++ {
		lo, hi := classStart[c], classStart[c+1]
		ci := &d.classes[c]
		ci.second = allSecond[lo:hi:hi]
		ci.spans = allSpans[lo:hi:hi]
		k0s := allK0[lo:hi]
		if len(k0s) == 0 {
			continue
		}
		minK0, maxK0 := k0s[0], k0s[len(k0s)-1]
		ci.minK0 = minK0
		start := len(allBuckets)
		pos := 0
		for b := int32(0); b <= maxK0-minK0; b++ {
			allBuckets = append(allBuckets, int32(pos))
			for pos < len(k0s) && k0s[pos]-minK0 == b {
				pos++
			}
		}
		allBuckets = append(allBuckets, int32(len(k0s)))
		end := len(allBuckets)
		ci.firstIdx = allBuckets[start:end:end]
	}
	// Per-class session filters, copied into compact form for the
	// per-packet path.
	d.meta = make([]classMeta, len(m.Classes))
	for i, c := range m.Classes {
		cm := &d.meta[i]
		cm.transport = c.Transport
		cm.scopeSlot = uint8(scopeSlot(core.Scope(c.Scope)))
		cm.aggSlot = uint8(aggSlot(core.Aggregation(c.Agg)))
		if len(c.Ports) <= len(cm.ports) {
			cm.nPorts = uint8(len(c.Ports))
			copy(cm.ports[:], c.Ports)
		} else {
			cm.nPorts = 0xFF
			cm.portsExt = c.Ports
		}
	}
	d.buildMasks(m)
	d.buildUnitIndex(allK0, allSecond, allSpans, classStart)
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

// UnitRanges appends to dst the ranges of the (class, unit-key)
// coordination component this manifest has the node enforce, shed already
// subtracted: the set CoversUnit tests points against, sorted by Lo. It
// returns the extended slice and allocates only to grow dst, so audits and
// the runtime's governing can reuse one buffer across units.
func (d *Decider) UnitRanges(dst hashing.RangeSet, class int, key [2]int) hashing.RangeSet {
	if class < 0 || class >= len(d.classes) {
		return dst
	}
	if sp, ok := d.classes[class].lookup(int32(key[0]), int32(key[1])); ok {
		return d.arena.AppendRanges(dst, sp)
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

// ShouldAnalyze resolves whether this node analyzes the session for the
// class. Unit resolution follows the class scope exactly as the planner's
// Instance.UnitFor does, but using only the session's addressing (the
// node-prefix convention stands in for the paper's prefix-to-ingress
// configuration files).
func (d *Decider) ShouldAnalyze(class int, s traffic.Session) bool {
	if class < 0 || class >= len(d.meta) {
		return false
	}
	cm := &d.meta[class]
	if !cm.matches(s.Tuple) {
		return false
	}
	k0, k1 := sessionKey(cm.scopeSlot, s)
	sp, ok := d.classes[class].lookup(k0, k1)
	if !ok {
		return false
	}
	return d.arena.Contains(sp, d.hashFor(cm.aggSlot, s.Tuple))
}

// buildMasks precomputes the per-class eligibility bitmasks DecideMask
// uses. Manifests with more than 64 classes (none exist in
// practice; the paper tops out at 21 modules) fall back to the per-class
// filter loop.
func (d *Decider) buildMasks(m *Manifest) {
	if len(d.meta) > 64 {
		return
	}
	d.maskable = true
	for ci := range d.meta {
		bit := uint64(1) << uint(ci)
		if !d.classes[ci].empty() {
			d.nonEmptyMask |= bit
		}
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

// buildUnitIndex regroups the flattened assignments by scope slot for the
// batch path: the canonical per-class columns (k0, k1, span, classStart)
// are reordered into (scope, k0, k1, class) order, each scope getting its
// own unit directory over the shared entry array.
func (d *Decider) buildUnitIndex(allK0, allSecond []int32, allSpans []hashing.Span, classStart []int) {
	if !d.maskable {
		return
	}
	// Bucket the entries by scope, classes ascending, then sort each
	// scope's bucket by unit key (a scope of one class already is).
	var scopeLen [3]int
	for c := range d.meta {
		sc := d.meta[c].scopeSlot
		d.scopeMask[sc] |= uint64(1) << uint(c)
		scopeLen[sc] += classStart[c+1] - classStart[c]
	}
	var keyBuf [64]ukey
	keys := keyBuf[:0]
	if len(allK0) > len(keyBuf) {
		keys = make([]ukey, 0, len(allK0))
	}
	keys = keys[:len(allK0)]
	var next [3]int
	next[1] = scopeLen[0]
	next[2] = next[1] + scopeLen[1]
	for c := range d.meta {
		sc := d.meta[c].scopeSlot
		for i := classStart[c]; i < classStart[c+1]; i++ {
			keys[next[sc]] = ukey{allK0[i], allSecond[i], int32(c), int32(i)}
			next[sc]++
		}
	}
	d.entries = make([]uentry, len(keys))
	lo := 0
	for sc := 0; sc < 3; sc++ {
		hi := lo + scopeLen[sc]
		seg := keys[lo:hi]
		slices.SortFunc(seg, func(a, b ukey) int {
			if c := cmp.Compare(a.k0, b.k0); c != 0 {
				return c
			}
			if c := cmp.Compare(a.k1, b.k1); c != 0 {
				return c
			}
			return cmp.Compare(a.ci, b.ci)
		})
		nUnits := 0
		for i, k := range seg {
			e := uentry{
				span: allSpans[k.i],
				bit:  uint64(1) << uint(k.ci),
				agg:  d.meta[k.ci].aggSlot,
			}
			d.scopeAggs[sc] |= 1 << e.agg
			switch e.span.Len() {
			case 0:
				// Fully shed assignment: inline bounds stay empty, never match.
			case 1:
				var one [1]hashing.Range
				r := d.arena.AppendRanges(one[:0], e.span)[0]
				e.lo, e.hi = r.Lo, r.Hi
			default:
				e.multi = true
			}
			d.entries[lo+i] = e
			if i == 0 || k.k0 != seg[i-1].k0 || k.k1 != seg[i-1].k1 {
				nUnits++
			}
		}
		if nUnits > 0 {
			d.units[sc].build(seg, lo, nUnits)
		}
		lo = hi
	}
}

// ukey is one entry of the batch path's scope-grouped view while it is
// built: its unit key, class, and index into the per-class columns.
type ukey struct{ k0, k1, ci, i int32 }

// build fills a scope's unit directory from its entries, seg, sorted by
// unit key and starting at entry base; nUnits is their count of distinct
// unit keys. The columns share one backing allocation.
func (ui *unitIndex) build(seg []ukey, base, nUnits int) {
	minK0, maxK0 := seg[0].k0, seg[len(seg)-1].k0
	span := int(maxK0-minK0) + 1
	flat := true
	for _, k := range seg {
		if k.k1 != -1 {
			flat = false
			break
		}
	}
	n := 2*nUnits + 1 + span + 1
	if flat {
		n += span
	}
	cols := make([]int32, n)
	ui.minK0 = minK0
	ui.second, cols = cols[:nUnits:nUnits], cols[nUnits:]
	ui.entLo, cols = cols[:nUnits+1:nUnits+1], cols[nUnits+1:]
	ui.firstIdx, cols = cols[:span+1:span+1], cols[span+1:]
	if flat {
		ui.flat = cols
		for i := range ui.flat {
			ui.flat[i] = -1
		}
	}
	// firstIdx[b] counts the units of the buckets before b.
	u := 0
	for i, k := range seg {
		if i > 0 && k.k0 == seg[i-1].k0 && k.k1 == seg[i-1].k1 {
			continue
		}
		ui.second[u] = k.k1
		ui.entLo[u] = int32(base + i)
		ui.firstIdx[k.k0-minK0+1]++
		if flat {
			ui.flat[k.k0-minK0] = int32(u)
		}
		u++
	}
	ui.entLo[nUnits] = int32(base + len(seg))
	for b := 1; b <= span; b++ {
		ui.firstIdx[b] += ui.firstIdx[b-1]
	}
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

// sessionKey resolves the session's coordination-unit key for a scope slot
// (the GETCOORDUNIT step of Figure 3).
func sessionKey(slot uint8, s traffic.Session) (int32, int32) {
	switch slot {
	case 1: // PerIngress
		return int32(s.Src), -1
	case 2: // PerEgress
		return int32(s.Dst), -1
	default: // PerPath
		a, b := s.Src, s.Dst
		if a > b {
			a, b = b, a
		}
		return int32(a), int32(b)
	}
}

// allSessionKeys resolves the unit keys of all three scopes at once,
// branch-predictably, for the batch path (computing an unneeded key is two
// register moves; a mispredicted memoization branch costs more).
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

// hashFor computes the selection hash for an aggregation slot.
func (d *Decider) hashFor(slot uint8, t hashing.FiveTuple) float64 {
	switch slot {
	case 1:
		return d.hasher.Flow(t)
	case 2:
		return d.hasher.Source(t)
	case 3:
		return d.hasher.Destination(t)
	default:
		return d.hasher.Session(t)
	}
}

// scopeSlot and aggSlot map the class enums onto small dense memo slots,
// with unknown values collapsing onto the same defaults ShouldAnalyze
// uses (PerPath, BySession).
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

// DecideMask resolves ShouldAnalyze for every class of the manifest in one
// pass, packed into one word: bit c set means class c analyzes the
// session. The session's unit keys (one per scope) and selection hashes
// (one per aggregation) are computed at most once each and shared across
// classes. It is the data plane's form — the engine scatters the word
// straight into its bit-packed pass set, and the pointer argument spares
// the per-call 64-byte Session copy the value-receiver interface pays. The
// session is only read. ok is false when the manifest exceeds 64 classes
// (then callers must fall back to ShouldAnalyze per class; no real
// deployment does — the paper's scaling sweep tops out at 21 modules).
// Allocation-free.
func (d *Decider) DecideMask(s *traffic.Session) (mask uint64, ok bool) {
	if !d.maskable {
		return 0, false
	}
	em := d.eligibleMask(s.Tuple)
	if em == 0 {
		return 0, true
	}
	// Phase 1: resolve all unit lookups, remembering each hit scope's
	// entry group and which agg slots its entries use.
	ak := allSessionKeys(s.Src, s.Dst)
	var glo, ghi [3]int32
	var need uint8
	for sc := 0; sc < 3; sc++ {
		if em&d.scopeMask[sc] == 0 {
			continue // no eligible class uses this scope
		}
		if lo, hi, ok := d.units[sc].lookup(ak[sc][0], ak[sc][1]); ok {
			glo[sc], ghi[sc] = lo, hi
			need |= d.scopeAggs[sc]
		}
	}
	// Phase 2: compute exactly the hashes the hit scopes need, back to
	// back. Each hash is a serial mix chain, but the chains are mutually
	// independent, so issued together they overlap in flight; resolved
	// lazily inside the entry scan below they would serialize.
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
	// Phase 3: scan the hit entry groups (missed scopes have glo == ghi).
	// The eligibility skip is kept as a branch on purpose: most entries in
	// a group fail it (port-restricted duplicates), so skipping saves the
	// hash load and bounds compare for the majority of entries.
	var res uint64
	for sc := 0; sc < 3; sc++ {
		for i := glo[sc]; i < ghi[sc]; i++ {
			e := &d.entries[i]
			if em&e.bit == 0 {
				continue
			}
			h := hashes[e.agg]
			if h >= e.lo && h < e.hi {
				res |= e.bit
			} else if e.multi && d.arena.Contains(e.span, h) {
				res |= e.bit
			}
		}
	}
	return res, true
}
