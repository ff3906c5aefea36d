package control

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"nwdeploy/internal/hashing"
	"nwdeploy/internal/traffic"
)

// The sorted-merge wire kernels against their map-based references
// (delta_ref_test.go, decider_ref_test.go), on seeded random manifests
// shaped to hit every grouping path: duplicate keys, unsorted slices,
// overlapping, empty and inverted ranges, shed entries with and without a
// matching assignment, and class tables that differ only in nil-ness.

// randRange draws a range on the eighths grid (so ranges touch, tie and
// overlap often) or anywhere in [0, 1); a few are empty or inverted.
func randRange(rng *rand.Rand) WireRange {
	pick := func() float64 {
		if rng.Intn(3) == 0 {
			return rng.Float64()
		}
		return float64(rng.Intn(9)) / 8
	}
	lo, hi := pick(), pick()
	switch rng.Intn(6) {
	case 0: // inverted or empty as drawn
	case 1:
		hi = lo
	default:
		if lo > hi {
			lo, hi = hi, lo
		}
	}
	return WireRange{Lo: lo, Hi: hi}
}

// randAssignments draws n assignments over a few keys, so duplicates are
// common, in no particular order. classes bounds the class index drawn;
// one in eight entries uses an undeclared class when hostile.
func randAssignments(rng *rand.Rand, n, classes int, hostile bool) []WireAssignment {
	if n == 0 {
		if rng.Intn(2) == 0 {
			return nil
		}
		return []WireAssignment{}
	}
	out := make([]WireAssignment, n)
	for i := range out {
		a := &out[i]
		a.Class = rng.Intn(classes)
		if hostile && rng.Intn(8) == 0 {
			a.Class = classes + rng.Intn(2)
		}
		a.Unit = [2]int{rng.Intn(5) - 1, rng.Intn(4) - 1}
		for r := rng.Intn(4); r > 0; r-- {
			a.Ranges = append(a.Ranges, randRange(rng))
		}
	}
	return out
}

// randClasses draws a class table over every scope and aggregation (plus
// out-of-range values), with transport and port filters of every size.
func randClasses(rng *rand.Rand, n int) []WireClass {
	ports := []uint16{22, 53, 80, 443, 8080, 25}
	out := make([]WireClass, n)
	for i := range out {
		c := &out[i]
		c.Name = string(rune('a' + i%26))
		c.Scope, c.Agg = rng.Intn(4), rng.Intn(5)
		c.Transport = []uint8{0, 0, 6, 17}[rng.Intn(4)]
		for p := rng.Intn(7) - 1; p > 0; p-- {
			c.Ports = append(c.Ports, ports[rng.Intn(len(ports))])
		}
	}
	return out
}

func randManifest(rng *rand.Rand, classes []WireClass, hostile bool) *Manifest {
	return &Manifest{
		Node: 3, Epoch: uint64(1 + rng.Intn(5)), HashKey: 7, Classes: classes,
		Assignments: randAssignments(rng, rng.Intn(9), len(classes), hostile),
		Shed:        randAssignments(rng, rng.Intn(4), len(classes), hostile),
	}
}

// cloneAssignments deep-copies as, keeping nil-ness at every level.
func cloneAssignments(as []WireAssignment) []WireAssignment {
	if as == nil {
		return nil
	}
	out := make([]WireAssignment, len(as))
	for i, a := range as {
		out[i] = a
		if a.Ranges != nil {
			out[i].Ranges = append([]WireRange{}, a.Ranges...)
		}
	}
	return out
}

// sameWire fails unless got and want encode to the same JSON, and, when
// bin is non-nil, the same binary bytes.
func sameWire[T any](t *testing.T, label string, got, want T, bin func([]byte, T) []byte) {
	t.Helper()
	gj, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	wj, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gj, wj) {
		t.Fatalf("%s: JSON differs\n got %s\nwant %s", label, gj, wj)
	}
	if bin != nil && !bytes.Equal(bin(nil, got), bin(nil, want)) {
		t.Fatalf("%s: binary encoding differs (JSON %s)", label, gj)
	}
}

func sameErr(t *testing.T, label string, got, want error) {
	t.Helper()
	if (got == nil) != (want == nil) || got != nil && got.Error() != want.Error() {
		t.Fatalf("%s: error %v, reference %v", label, got, want)
	}
}

func appendAssignmentsBinary(dst []byte, as []WireAssignment) []byte {
	return AppendManifestBinary(dst, &Manifest{Classes: make([]WireClass, 8), Assignments: as})
}

func TestWireKernelsMatchReference(t *testing.T) {
	for seed := int64(0); seed < 3000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		classes := randClasses(rng, 1+rng.Intn(3))
		old := randManifest(rng, classes, false)
		cur := randManifest(rng, classes, false)
		cur.Epoch = old.Epoch + 1
		switch rng.Intn(5) {
		case 0: // a small edit of old, sharing its shed slice
			cur.Assignments = append(cloneAssignments(old.Assignments), randAssignments(rng, 1, len(classes), false)...)
			cur.Shed = old.Shed
		case 1: // an equal shed in its own slices, and a deep-copied class table
			cur.Shed = cloneAssignments(old.Shed)
			cur.Classes = append([]WireClass(nil), classes...)
		case 2: // a class table that differs only in the nil-ness of a port list
			cur.Classes = append([]WireClass(nil), classes...)
			if cur.Classes[0].Ports == nil {
				cur.Classes[0].Ports = []uint16{}
			} else if len(cur.Classes[0].Ports) == 0 {
				cur.Classes[0].Ports = nil
			}
		}
		got, gotOK := DiffManifests(old, cur)
		want, wantOK := refDiffManifests(old, cur)
		if gotOK != wantOK {
			t.Fatalf("seed %d: DiffManifests ok %v, reference %v", seed, gotOK, wantOK)
		}
		if gotOK {
			sameWire(t, "DiffManifests", got, want, AppendDeltaBinary)
			gotM, gerr := ApplyDelta(old, got)
			wantM, werr := refApplyDelta(old, want)
			sameErr(t, "ApplyDelta(DiffManifests)", gerr, werr)
			if gerr == nil {
				sameWire(t, "ApplyDelta(DiffManifests)", gotM, wantM, AppendManifestBinary)
			}
		}

		// An arbitrary delta, some with keys outside the class table.
		d := &WireDelta{
			Node: old.Node, BaseEpoch: old.Epoch, Epoch: old.Epoch + 1,
			Added:       randAssignments(rng, rng.Intn(5), len(classes), rng.Intn(4) == 0),
			Removed:     randAssignments(rng, rng.Intn(5), len(classes), false),
			ShedChanged: rng.Intn(2) == 0,
		}
		if d.ShedChanged {
			d.Shed = randAssignments(rng, rng.Intn(3), len(classes), false)
		}
		gotM, gerr := ApplyDelta(old, d)
		wantM, werr := refApplyDelta(old, d)
		sameErr(t, "ApplyDelta", gerr, werr)
		if gerr == nil {
			sameWire(t, "ApplyDelta", gotM, wantM, AppendManifestBinary)
		}

		// Canonical form, with a non-finite bound now and then.
		as := randAssignments(rng, rng.Intn(9), len(classes), true)
		if len(as) > 0 && len(as[0].Ranges) > 0 && rng.Intn(10) == 0 {
			as[0].Ranges[0].Hi = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
		}
		gotC, gerr := CanonicalAssignments(as)
		wantC, werr := refCanonicalAssignments(as)
		sameErr(t, "CanonicalAssignments", gerr, werr)
		if gerr == nil {
			sameWire(t, "CanonicalAssignments", gotC, wantC, appendAssignmentsBinary)
		}
	}
}

// refWidth is AssignedWidth and ShedWidth as the map-backed decider would
// sum them: per key in canonical order, over the ranges sorted by (Lo, Hi).
func refWidth(byKey map[baselineKey]hashing.RangeSet, classes int) float64 {
	keys := make([]akey, 0, len(byKey))
	for k := range byKey {
		if classes < 0 || k.class >= 0 && k.class < classes {
			keys = append(keys, akey{k.class, int32(k.unit[0]), int32(k.unit[1])})
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].compare(keys[j]) < 0 })
	var w float64
	for _, k := range keys {
		rs := append(hashing.RangeSet(nil), byKey[baselineKey{k.class, [2]int{int(k.k0), int(k.k1)}}]...)
		refSortRanges(rs)
		for _, r := range rs {
			w += r.Width()
		}
	}
	return w
}

// refShed is the shed map the baseline decider subtracts: per key, the
// last entry's ranges.
func refShed(m *Manifest) map[baselineKey]hashing.RangeSet {
	out := make(map[baselineKey]hashing.RangeSet, len(m.Shed))
	for _, a := range m.Shed {
		out[baselineKey{a.Class, a.Unit}] = appendRanges(nil, a.Ranges)
	}
	return out
}

// deciderSessions are sessions between nodes -1..4 (every unit key
// randAssignments draws) with ports and transports that every class
// filter of randClasses both admits and rejects.
func deciderSessions(rng *rand.Rand, n int) []traffic.Session {
	ports := []uint16{22, 53, 80, 443, 8080, 25, 9999}
	out := make([]traffic.Session, n)
	for i := range out {
		out[i] = traffic.Session{
			Src: rng.Intn(6) - 1, Dst: rng.Intn(6) - 1,
			Tuple: hashing.FiveTuple{
				SrcIP: rng.Uint32(), DstIP: rng.Uint32(),
				SrcPort: uint16(rng.Intn(65536)), DstPort: ports[rng.Intn(len(ports))],
				Proto: []uint8{6, 17, 1}[rng.Intn(3)],
			},
		}
	}
	return out
}

// checkDecider compares every query of the index against the baseline. A
// manifest of more than 64 classes has no index: the install check must
// reject it and NewDecider must panic on it.
func checkDecider(t *testing.T, m *Manifest, sessions []traffic.Session) {
	t.Helper()
	if len(m.Classes) > 64 {
		if err := checkManifest(m); err == nil || !strings.Contains(err.Error(), "classes") {
			t.Fatalf("install check admits %d classes (err %v)", len(m.Classes), err)
		}
		defer func() {
			if recover() == nil {
				t.Fatalf("NewDecider indexed %d classes", len(m.Classes))
			}
		}()
		NewDecider(m)
		return
	}
	d, ref := NewDecider(m), newBaselineDecider(m)
	if got, want := d.AssignedWidth(), refWidth(ref.ranges, len(m.Classes)); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("AssignedWidth %v, reference %v", got, want)
	}
	if got, want := d.ShedWidth(), refWidth(refShed(m), -1); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("ShedWidth %v, reference %v", got, want)
	}
	for k, rs := range ref.ranges {
		if k.class < 0 || k.class >= len(m.Classes) {
			continue
		}
		var kept hashing.RangeSet
		for _, r := range rs {
			if !r.IsEmpty() {
				kept = append(kept, r)
			}
		}
		want := refCoalesceRanges(kept)
		got := d.UnitRanges(nil, k.class, k.unit)
		if len(got) != len(want) {
			t.Fatalf("UnitRanges(%d, %v) = %v, reference %v", k.class, k.unit, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("UnitRanges(%d, %v) = %v, reference %v", k.class, k.unit, got, want)
			}
		}
	}
	if got := d.UnitRanges(nil, 0, [2]int{99, 99}); len(got) != 0 {
		t.Fatalf("UnitRanges of an unassigned unit = %v", got)
	}
	for i := range sessions {
		s := &sessions[i]
		mask, ok := d.DecideMask(s)
		if !ok {
			t.Fatalf("DecideMask ok false with %d classes", len(m.Classes))
		}
		if mask>>uint(len(m.Classes)) != 0 {
			t.Fatalf("session %d: DecideMask %#x sets bits past %d classes", i, mask, len(m.Classes))
		}
		for c := -1; c <= len(m.Classes); c++ {
			want := ref.ShouldAnalyze(c, *s)
			if got := d.ShouldAnalyze(c, *s); got != want {
				t.Fatalf("session %d class %d: ShouldAnalyze %v, reference %v", i, c, got, want)
			}
			if c >= 0 && c < len(m.Classes) && (mask>>uint(c)&1 == 1) != want {
				t.Fatalf("session %d class %d: DecideMask bit %v, reference %v", i, c, !want, want)
			}
		}
	}
}

// decideManifest draws the manifest FuzzDecideMask checks: a few classes,
// or 63 to 68 when wide: the bound itself, and past it the manifests
// checkDecider requires to be rejected. Most draws are randManifest's assignments and
// shed of every shape; one in four is shaped like a real plan's.
func decideManifest(rng *rand.Rand, wide bool) *Manifest {
	n := 1 + rng.Intn(5)
	if wide {
		n = 63 + rng.Intn(6)
	}
	m := randManifest(rng, randClasses(rng, n), true)
	if rng.Intn(4) == 0 {
		m.Assignments, m.Shed = planShaped(rng, n)
	}
	return m
}

// planShaped draws the assignments and shed of a real plan's shape: the
// classes on the same two units, so whole and fractional entries share a
// unit group; most entries whole, others a proper part of [0, 1) or
// pieces that coalesce to it; and shed that cuts an entry, part of it or
// all of it, so fully shed entries sit beside whole ones.
func planShaped(rng *rand.Rand, classes int) (as, shed []WireAssignment) {
	units := [2][2]int{{rng.Intn(5) - 1, rng.Intn(4) - 1}, {rng.Intn(5) - 1, -1}}
	for c := 0; c < classes; c++ {
		for _, u := range units {
			a := WireAssignment{Class: c, Unit: u}
			switch x := float64(1+rng.Intn(7)) / 8; rng.Intn(5) {
			case 0, 1:
				a.Ranges = []WireRange{{Lo: 0, Hi: 1}}
			case 2:
				a.Ranges = []WireRange{{Lo: x, Hi: 1}, {Lo: 0, Hi: x}}
			case 3:
				a.Ranges = []WireRange{randRange(rng)}
			default:
				continue
			}
			as = append(as, a)
		}
	}
	rng.Shuffle(len(as), func(i, j int) { as[i], as[j] = as[j], as[i] })
	for k := rng.Intn(4); k > 0 && len(as) > 0; k-- {
		a := as[rng.Intn(len(as))]
		cut := WireAssignment{Class: a.Class, Unit: a.Unit}
		switch x := float64(1+rng.Intn(7)) / 8; rng.Intn(3) {
		case 0:
			cut.Ranges = []WireRange{{Lo: 0, Hi: 1}}
		case 1:
			cut.Ranges = []WireRange{{Lo: 0, Hi: x}}
		default:
			cut.Ranges = []WireRange{randRange(rng)}
		}
		shed = append(shed, cut)
	}
	return as, shed
}

func FuzzDecideMask(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, seed%4 == 3)
	}
	f.Fuzz(func(t *testing.T, seed int64, wide bool) {
		rng := rand.New(rand.NewSource(seed))
		checkDecider(t, decideManifest(rng, wide), deciderSessions(rng, 48))
	})
}

// The same check on a fixed sweep of seeds, so `go test` runs it without
// the fuzzing engine.
func TestDeciderMatchesReferenceRandom(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		checkDecider(t, decideManifest(rng, seed%16 == 15), deciderSessions(rng, 48))
	}
}

// AssignedWidth and ShedWidth once summed ranges that share a Lo in the
// order the manifest listed them, so permuting such ranges could move the
// last bit. Ties now sum in Hi order.
func TestDeciderWidthTieOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		rs := make([]WireRange, 3+rng.Intn(4))
		for i := range rs {
			rs[i] = WireRange{Lo: 0.125, Hi: 0.125 + rng.Float64()*0.875}
		}
		m := &Manifest{
			Classes:     []WireClass{{Name: "x"}},
			Assignments: []WireAssignment{{Class: 0, Unit: [2]int{0, 1}, Ranges: rs}},
			Shed:        []WireAssignment{{Class: 0, Unit: [2]int{3, 1}, Ranges: rs}},
		}
		d := NewDecider(m)
		wantA, wantS := math.Float64bits(d.AssignedWidth()), math.Float64bits(d.ShedWidth())
		for p := 0; p < 10; p++ {
			perm := append([]WireRange(nil), rs...)
			rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
			m.Assignments[0].Ranges, m.Shed[0].Ranges = perm, perm
			d := NewDecider(m)
			if got := math.Float64bits(d.AssignedWidth()); got != wantA {
				t.Fatalf("trial %d: AssignedWidth %v under a permutation of %v, was %v", trial, d.AssignedWidth(), perm, math.Float64frombits(wantA))
			}
			if got := math.Float64bits(d.ShedWidth()); got != wantS {
				t.Fatalf("trial %d: ShedWidth %v under a permutation of %v, was %v", trial, d.ShedWidth(), perm, math.Float64frombits(wantS))
			}
		}
	}
}
