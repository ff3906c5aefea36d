// Package hashing implements the packet-selection hash machinery the paper
// builds its sampling manifests on: the Bob Jenkins ("Bob") hash function
// recommended for packet sampling by Molina et al. (the paper's [26]),
// canonical unidirectional and bidirectional 5-tuple keys, a keyed-hash
// mode to resist adversaries crafting traffic that evades sampling checks
// (Section 3.2's first assumption), and half-open [lo, hi) hash ranges used
// by the manifests of Figure 2.
package hashing

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sort"
)

// FiveTuple identifies a unidirectional flow: a sequence of packets with
// the same addresses, ports, and protocol. IPs are IPv4 in host order.
type FiveTuple struct {
	SrcIP, DstIP     uint32
	SrcPort, DstPort uint16
	Proto            uint8
}

// Reverse returns the tuple for the opposite direction.
func (ft FiveTuple) Reverse() FiveTuple {
	return FiveTuple{
		SrcIP: ft.DstIP, DstIP: ft.SrcIP,
		SrcPort: ft.DstPort, DstPort: ft.SrcPort,
		Proto: ft.Proto,
	}
}

// String renders the tuple as "a.b.c.d:p -> a.b.c.d:p/proto".
func (ft FiveTuple) String() string {
	ip := func(v uint32) string {
		return fmt.Sprintf("%d.%d.%d.%d", byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	}
	return fmt.Sprintf("%s:%d -> %s:%d/%d", ip(ft.SrcIP), ft.SrcPort, ip(ft.DstIP), ft.DstPort, ft.Proto)
}

// canonical orders the endpoints so both directions of a session yield the
// same byte encoding (the paper's "bidirectional 5-tuple such that the
// src/dst IP are consistent in both directions"). The (IP, port) pairs are
// compared as packed 48-bit keys and swapped under a single condition —
// one compare plus conditional moves, no data-dependent branch. On random
// traffic the direction test is a coin flip, and a mispredicted branch
// here stalls the serial mix chain that consumes the result.
func (ft FiveTuple) canonical() FiveTuple {
	ks := uint64(ft.SrcIP)<<16 | uint64(ft.SrcPort)
	kd := uint64(ft.DstIP)<<16 | uint64(ft.DstPort)
	if ks > kd {
		ft.SrcIP, ft.DstIP = ft.DstIP, ft.SrcIP
		ft.SrcPort, ft.DstPort = ft.DstPort, ft.SrcPort
	}
	return ft
}

// encode writes the 13-byte wire form of the tuple.
func (ft FiveTuple) encode(b *[13]byte) {
	binary.BigEndian.PutUint32(b[0:4], ft.SrcIP)
	binary.BigEndian.PutUint32(b[4:8], ft.DstIP)
	binary.BigEndian.PutUint16(b[8:10], ft.SrcPort)
	binary.BigEndian.PutUint16(b[10:12], ft.DstPort)
	b[12] = ft.Proto
}

// Bob computes Bob Jenkins' lookup2 hash over data with the given seed.
// This is the hash function the packet-sampling literature the paper cites
// found to have the best uniformity/cost trade-off for flow keys.
func Bob(data []byte, seed uint32) uint32 {
	var a, b, c uint32 = 0x9e3779b9, 0x9e3779b9, seed
	i := 0
	for ; i+12 <= len(data); i += 12 {
		a += binary.LittleEndian.Uint32(data[i : i+4])
		b += binary.LittleEndian.Uint32(data[i+4 : i+8])
		c += binary.LittleEndian.Uint32(data[i+8 : i+12])
		a, b, c = mix(a, b, c)
	}
	c += uint32(len(data))
	rest := data[i:]
	switch len(rest) {
	case 11:
		c += uint32(rest[10]) << 24
		fallthrough
	case 10:
		c += uint32(rest[9]) << 16
		fallthrough
	case 9:
		c += uint32(rest[8]) << 8
		fallthrough
	case 8:
		b += uint32(rest[7]) << 24
		fallthrough
	case 7:
		b += uint32(rest[6]) << 16
		fallthrough
	case 6:
		b += uint32(rest[5]) << 8
		fallthrough
	case 5:
		b += uint32(rest[4])
		fallthrough
	case 4:
		a += uint32(rest[3]) << 24
		fallthrough
	case 3:
		a += uint32(rest[2]) << 16
		fallthrough
	case 2:
		a += uint32(rest[1]) << 8
		fallthrough
	case 1:
		a += uint32(rest[0])
	}
	_, _, c = mix(a, b, c)
	return c
}

// mix is lookup2's reversible 3-word mixer.
func mix(a, b, c uint32) (uint32, uint32, uint32) {
	a -= b
	a -= c
	a ^= c >> 13
	b -= c
	b -= a
	b ^= a << 8
	c -= a
	c -= b
	c ^= b >> 13
	a -= b
	a -= c
	a ^= c >> 12
	b -= c
	b -= a
	b ^= a << 16
	c -= a
	c -= b
	c ^= b >> 5
	a -= b
	a -= c
	a ^= c >> 3
	b -= c
	b -= a
	b ^= a << 10
	c -= a
	c -= b
	c ^= b >> 15
	return a, b, c
}

// Hasher maps flow keys to the unit interval. The Key seeds the hash so
// operators can use a private keyed hash to prevent adversaries from
// predicting which node samples which flows.
type Hasher struct {
	Key uint32
}

// unit converts a 32-bit hash to [0, 1).
func unit(h uint32) float64 { return float64(h) / 4294967296.0 }

// The per-packet Hasher methods below are fixed-size specializations of
// Bob over the tuple's wire encoding: the encode buffer and the generic
// block loop are folded into direct word arithmetic. The outputs are
// bit-identical to encoding and calling Bob (TestHasherMatchesGenericBob
// pins this); only the constant-factor cost changes, which matters because
// these run up to four times per session on the data-plane decision path.

// bob13 is Bob over a 13-byte input given as its three little-endian block
// words plus the single tail byte. The two mix rounds are written out
// inline: mix is a 24-op serial dependency chain that the compiler does
// not inline, and at one-to-four calls per session the call overhead of
// two outlined rounds is measurable on the decision path.
func bob13(w0, w1, w2 uint32, tail uint8, seed uint32) uint32 {
	a, b, c := 0x9e3779b9+w0, 0x9e3779b9+w1, seed+w2
	a -= b
	a -= c
	a ^= c >> 13
	b -= c
	b -= a
	b ^= a << 8
	c -= a
	c -= b
	c ^= b >> 13
	a -= b
	a -= c
	a ^= c >> 12
	b -= c
	b -= a
	b ^= a << 16
	c -= a
	c -= b
	c ^= b >> 5
	a -= b
	a -= c
	a ^= c >> 3
	b -= c
	b -= a
	b ^= a << 10
	c -= a
	c -= b
	c ^= b >> 15
	c += 13
	a += uint32(tail)
	a -= b
	a -= c
	a ^= c >> 13
	b -= c
	b -= a
	b ^= a << 8
	c -= a
	c -= b
	c ^= b >> 13
	a -= b
	a -= c
	a ^= c >> 12
	b -= c
	b -= a
	b ^= a << 16
	c -= a
	c -= b
	c ^= b >> 5
	a -= b
	a -= c
	a ^= c >> 3
	b -= c
	b -= a
	b ^= a << 10
	c -= a
	c -= b
	c ^= b >> 15
	return c
}

// bob4 is Bob over a 4-byte big-endian input.
func bob4(v, seed uint32) uint32 {
	// No full block: c absorbs the length, then the four tail bytes land in
	// a as the byte-swapped word. Single mix round, written out for the
	// same reason as bob13.
	a, b, c := 0x9e3779b9+bits.ReverseBytes32(v), uint32(0x9e3779b9), seed+4
	a -= b
	a -= c
	a ^= c >> 13
	b -= c
	b -= a
	b ^= a << 8
	c -= a
	c -= b
	c ^= b >> 13
	a -= b
	a -= c
	a ^= c >> 12
	b -= c
	b -= a
	b ^= a << 16
	c -= a
	c -= b
	c ^= b >> 5
	a -= b
	a -= c
	a ^= c >> 3
	b -= c
	b -= a
	b ^= a << 10
	c -= a
	c -= b
	c ^= b >> 15
	return c
}

// portsWord is the little-endian third block word of the 13-byte encoding:
// the two big-endian ports byte-swapped and packed.
func portsWord(sp, dp uint16) uint32 {
	return uint32(bits.ReverseBytes16(sp)) | uint32(bits.ReverseBytes16(dp))<<16
}

// Flow hashes the unidirectional 5-tuple to [0, 1). Use for per-flow
// analyses where direction matters.
func (h Hasher) Flow(ft FiveTuple) float64 {
	return unit(bob13(bits.ReverseBytes32(ft.SrcIP), bits.ReverseBytes32(ft.DstIP),
		portsWord(ft.SrcPort, ft.DstPort), ft.Proto, h.Key))
}

// Session hashes the bidirectional (canonical) 5-tuple to [0, 1): both
// directions of a connection land at the same point, so session-based
// analyses see both halves at the same node. The canonical ordering is
// done on two packed (IP<<16 | port) words swapped in registers — the
// same ordering as canonical(), but without shuffling the struct through
// memory, and compiled branch-free so the coin-flip direction test never
// mispredicts into the serial mix chain.
func (h Hasher) Session(ft FiveTuple) float64 {
	ks := uint64(ft.SrcIP)<<16 | uint64(ft.SrcPort)
	kd := uint64(ft.DstIP)<<16 | uint64(ft.DstPort)
	if ks > kd {
		ks, kd = kd, ks
	}
	return unit(bob13(bits.ReverseBytes32(uint32(ks>>16)), bits.ReverseBytes32(uint32(kd>>16)),
		portsWord(uint16(ks), uint16(kd)), ft.Proto, h.Key))
}

// Source hashes only the source address to [0, 1). Per-source analyses
// (e.g. scan detection) use this so all flows from one host map together.
func (h Hasher) Source(ft FiveTuple) float64 {
	return unit(bob4(ft.SrcIP, h.Key))
}

// Destination hashes only the destination address to [0, 1). Per-destination
// analyses (e.g. SYN-flood victim counting) use this.
func (h Hasher) Destination(ft FiveTuple) float64 {
	return unit(bob4(ft.DstIP, h.Key))
}

// Range is a half-open interval [Lo, Hi) within the unit hash space.
// Manifests assign each node a set of ranges per coordination unit; the
// half-open convention makes adjacent ranges tile without double coverage.
type Range struct {
	Lo, Hi float64
}

// Contains reports whether x falls inside the range.
func (r Range) Contains(x float64) bool { return x >= r.Lo && x < r.Hi }

// Width returns the measure of the range (0 for empty or inverted ranges).
func (r Range) Width() float64 {
	if r.Hi <= r.Lo {
		return 0
	}
	return r.Hi - r.Lo
}

// IsEmpty reports whether the range covers nothing.
func (r Range) IsEmpty() bool { return r.Hi <= r.Lo }

// String renders the range as "[lo, hi)".
func (r Range) String() string { return fmt.Sprintf("[%.6f, %.6f)", r.Lo, r.Hi) }

// RangeSet is a collection of disjoint ranges assigned to one node for one
// coordination unit. With the paper's Section 2.5 redundancy extension a
// node's allocation can wrap around 1.0, producing two ranges.
type RangeSet []Range

// Contains reports whether x falls in any member range.
func (rs RangeSet) Contains(x float64) bool {
	for _, r := range rs {
		if r.Contains(x) {
			return true
		}
	}
	return false
}

// Width sums the member widths.
func (rs RangeSet) Width() float64 {
	var w float64
	for _, r := range rs {
		w += r.Width()
	}
	return w
}

// Clamp returns the range intersected with [0, 1), the only part of hash
// space a manifest can ever match. Out-of-range endpoints come from shed
// arithmetic done in cumulative coordinates; clamping keeps them honest.
func (r Range) Clamp() Range {
	if r.Lo < 0 {
		r.Lo = 0
	} else if r.Lo > 1 {
		r.Lo = 1
	}
	if r.Hi > 1 {
		r.Hi = 1
	} else if r.Hi < 0 {
		r.Hi = 0
	}
	return r
}

// Subtract returns rs minus the given ranges, as a set of disjoint
// half-open pieces in the order induced by rs. The load governor uses this
// to carve shed ranges out of a node's manifest exactly — widths subtract
// algebraically, with no probing error.
func (rs RangeSet) Subtract(shed RangeSet) RangeSet {
	if len(shed) == 0 || len(rs) == 0 {
		return rs
	}
	return rs.AppendSubtract(make(RangeSet, 0, len(rs)), shed)
}

// AppendSubtract appends the pieces of rs minus shed to dst and returns the
// extended slice: Subtract without the allocation, for callers that reuse
// one buffer. The pieces reuse the original endpoints, so a point is in the
// result exactly when rs.Contains(x) && !shed.Contains(x). They come in rs
// order, ascending within each range; empty and inverted ranges of rs drop
// out unless shed cuts nothing (then rs is appended as it is). Endpoints
// must not be NaN, which no checked manifest carries.
//
// Each range is swept against the cuts in ascending order, starting from a
// binary search, so the work is O((|rs|+|shed|)·log|shed| + output) however
// hostile the manifest. Shed that is already ascending and disjoint (the
// usual form, touching cuts allowed) is swept in place; any other is sorted
// and merged in a copy, leaving the caller's slice untouched.
func (rs RangeSet) AppendSubtract(dst, shed RangeSet) RangeSet {
	cuts := disjointCuts(shed)
	if len(cuts) == 0 {
		return append(dst, rs...)
	}
	for _, r := range rs {
		if r.IsEmpty() {
			continue
		}
		lo := r.Lo
		for j := sort.Search(len(cuts), func(i int) bool { return cuts[i].Hi > lo }); j < len(cuts) && cuts[j].Lo < r.Hi; j++ {
			if cuts[j].Lo > lo {
				dst = append(dst, Range{lo, cuts[j].Lo})
			}
			if lo = cuts[j].Hi; lo >= r.Hi {
				break
			}
		}
		if lo < r.Hi {
			dst = append(dst, Range{lo, r.Hi})
		}
	}
	return dst
}

// disjointCuts returns the union of shed's non-empty cuts as an ascending,
// disjoint set: shed itself when it already is one (touching cuts
// allowed), else a sorted copy with overlapping and touching cuts merged,
// leaving the caller's slice untouched.
func disjointCuts(shed RangeSet) RangeSet {
	clean := true
	for i, c := range shed {
		if c.IsEmpty() || i > 0 && shed[i-1].Hi > c.Lo {
			clean = false
			break
		}
	}
	if clean {
		return shed
	}
	cuts := make(RangeSet, 0, len(shed))
	for _, c := range shed {
		if !c.IsEmpty() {
			cuts = append(cuts, c)
		}
	}
	slices.SortFunc(cuts, func(a, b Range) int { return cmp.Compare(a.Lo, b.Lo) })
	out := cuts[:0]
	for _, c := range cuts {
		if n := len(out); n > 0 && c.Lo <= out[n-1].Hi {
			out[n-1].Hi = max(out[n-1].Hi, c.Hi)
			continue
		}
		out = append(out, c)
	}
	return out
}
