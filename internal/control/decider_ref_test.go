package control

import (
	"encoding/binary"

	"nwdeploy/internal/core"
	"nwdeploy/internal/hashing"
	"nwdeploy/internal/traffic"
)

// This file keeps the per-packet check the flattened-index Decider replaced
// — a map keyed by (class, unit) whose values are the heap-allocated
// RangeSets, scanned linearly per lookup, one class at a time — as the
// test-only oracle DecideMask is checked against (checkDecider) and the
// "baseline-map" arm of BenchmarkDataplaneDecide. It also keeps the
// tests' per-class and point queries of a Decider, ShouldAnalyze and
// CoversUnit.

type baselineDecider struct {
	manifest *Manifest
	hashKey  uint32
	ranges   map[baselineKey]hashing.RangeSet
}

// The oracle also keeps its own hash path — byte-encode into a stack
// buffer, run the generic Bob block loop — rather than calling the Hasher
// methods the Decider uses, which have since been specialized. Outputs are
// identical (TestHasherMatchesGenericBob).

func legacyUnit(h uint32) float64 { return float64(h) / 4294967296.0 }

func legacyEncode(b *[13]byte, ft hashing.FiveTuple) {
	binary.BigEndian.PutUint32(b[0:4], ft.SrcIP)
	binary.BigEndian.PutUint32(b[4:8], ft.DstIP)
	binary.BigEndian.PutUint16(b[8:10], ft.SrcPort)
	binary.BigEndian.PutUint16(b[10:12], ft.DstPort)
	b[12] = ft.Proto
}

func legacyFlow(key uint32, ft hashing.FiveTuple) float64 {
	var b [13]byte
	legacyEncode(&b, ft)
	return legacyUnit(hashing.Bob(b[:], key))
}

func legacySession(key uint32, ft hashing.FiveTuple) float64 {
	if ft.SrcIP > ft.DstIP || (ft.SrcIP == ft.DstIP && ft.SrcPort > ft.DstPort) {
		ft = ft.Reverse()
	}
	return legacyFlow(key, ft)
}

func legacyAddr(key uint32, ip uint32) float64 {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], ip)
	return legacyUnit(hashing.Bob(b[:], key))
}

type baselineKey struct {
	class int
	unit  [2]int
}

// newBaselineDecider indexes a manifest exactly as the pre-index Decider
// did, shed subtraction included.
func newBaselineDecider(m *Manifest) *baselineDecider {
	d := &baselineDecider{
		manifest: m,
		hashKey:  m.HashKey,
		ranges:   make(map[baselineKey]hashing.RangeSet, len(m.Assignments)),
	}
	shed := make(map[baselineKey]hashing.RangeSet, len(m.Shed))
	for _, a := range m.Shed {
		var rs hashing.RangeSet
		for _, r := range a.Ranges {
			rs = append(rs, hashing.Range{Lo: r.Lo, Hi: r.Hi})
		}
		shed[baselineKey{a.Class, a.Unit}] = rs
	}
	for _, a := range m.Assignments {
		var rs hashing.RangeSet
		for _, r := range a.Ranges {
			rs = append(rs, hashing.Range{Lo: r.Lo, Hi: r.Hi})
		}
		key := baselineKey{a.Class, a.Unit}
		if cut, ok := shed[key]; ok {
			rs = rs.Subtract(cut)
		}
		d.ranges[key] = rs
	}
	return d
}

// ShouldAnalyze is the pre-index form of Decider.ShouldAnalyze.
func (d *baselineDecider) ShouldAnalyze(class int, s traffic.Session) bool {
	if class < 0 || class >= len(d.manifest.Classes) {
		return false
	}
	c := d.manifest.Classes[class]
	if c.Transport != 0 && s.Tuple.Proto != c.Transport {
		return false
	}
	if len(c.Ports) > 0 {
		ok := false
		for _, p := range c.Ports {
			if s.Tuple.DstPort == p {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	var key [2]int
	switch core.Scope(c.Scope) {
	case core.PerIngress:
		key = [2]int{s.Src, -1}
	case core.PerEgress:
		key = [2]int{s.Dst, -1}
	default:
		a, b := s.Src, s.Dst
		if a > b {
			a, b = b, a
		}
		key = [2]int{a, b}
	}
	rs, ok := d.ranges[baselineKey{class, key}]
	if !ok {
		return false
	}
	var h float64
	switch core.Aggregation(c.Agg) {
	case core.ByFlow:
		h = legacyFlow(d.hashKey, s.Tuple)
	case core.BySource:
		h = legacyAddr(d.hashKey, s.Tuple.SrcIP)
	case core.ByDestination:
		h = legacyAddr(d.hashKey, s.Tuple.DstIP)
	default:
		h = legacySession(d.hashKey, s.Tuple)
	}
	return rs.Contains(h)
}

// ShouldAnalyze is the per-class form of the decision the tests hold to
// the planner and to the baseline: bit class of DecideMask's word, false
// for a class the manifest does not declare.
func (d *Decider) ShouldAnalyze(class int, s traffic.Session) bool {
	if class < 0 || class >= len(d.scope) {
		return false
	}
	m, _ := d.DecideMask(&s)
	return m>>uint(class)&1 != 0
}

// CoversUnit reports whether this manifest assigns hash point x of the
// (class, unit-key) coordination component to the node — the audit-side
// complement of ShouldAnalyze, and the point form of UnitRanges, which the
// cluster runtime's coverage audit reads instead.
func (d *Decider) CoversUnit(class int, key [2]int, x float64) bool {
	if class < 0 || class >= len(d.scope) {
		return false
	}
	e := d.entry(class, int32(key[0]), int32(key[1]))
	return e != nil && e.contains(&d.arena, x)
}
