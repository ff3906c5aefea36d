package hashing

import (
	"encoding/binary"
	"hash/crc32"
	"hash/fnv"
	"math"
	"testing"
)

// The paper selects the Bob hash "recommended by prior studies" (Molina,
// Niccolini, Duffield — a comparative experimental study of hash functions
// for packet sampling). This file provides the comparison harness: the
// alternative functions that study evaluated (CRC-style and simple
// arithmetic hashes) behind a common interface, and a uniformity metric so
// the choice can be revalidated on this repository's own flow keys.

// Func is a packet-sampling hash: bytes -> [0, 1).
type Func interface {
	Name() string
	Unit(data []byte, key uint32) float64
}

// BobFunc is the lookup2 hash used throughout the system.
type BobFunc struct{}

// Name implements Func.
func (BobFunc) Name() string { return "bob" }

// Unit implements Func.
func (BobFunc) Unit(data []byte, key uint32) float64 {
	return unit(Bob(data, key))
}

// FNVFunc is FNV-1a (32-bit) with the key mixed in as a prefix.
type FNVFunc struct{}

// Name implements Func.
func (FNVFunc) Name() string { return "fnv1a" }

// Unit implements Func.
func (FNVFunc) Unit(data []byte, key uint32) float64 {
	h := fnv.New32a()
	var kb [4]byte
	binary.BigEndian.PutUint32(kb[:], key)
	h.Write(kb[:])
	h.Write(data)
	return unit(h.Sum32())
}

// CRCFunc is CRC-32 (IEEE) with the key mixed in as a prefix. The Molina
// study found CRC acceptable for sampling but weaker than Bob under
// structured (low-entropy) keys.
type CRCFunc struct{}

// Name implements Func.
func (CRCFunc) Name() string { return "crc32" }

// Unit implements Func.
func (CRCFunc) Unit(data []byte, key uint32) float64 {
	var kb [4]byte
	binary.BigEndian.PutUint32(kb[:], key)
	c := crc32.Update(0, crc32.IEEETable, kb[:])
	c = crc32.Update(c, crc32.IEEETable, data)
	return unit(c)
}

// ModuloFunc is the strawman the study warns against: sum the bytes and
// take a modulus. Structured address space collapses it badly.
type ModuloFunc struct{}

// Name implements Func.
func (ModuloFunc) Name() string { return "byte-sum-modulo" }

// Unit implements Func.
func (ModuloFunc) Unit(data []byte, key uint32) float64 {
	var s uint32 = key
	for _, b := range data {
		s += uint32(b)
	}
	const modulus = 4096
	return float64(s%modulus) / modulus
}

// AllFuncs lists the comparable hash functions, Bob first.
func AllFuncs() []Func {
	return []Func{BobFunc{}, FNVFunc{}, CRCFunc{}, ModuloFunc{}}
}

// ChiSquared measures uniformity of hash outputs over equal-width buckets:
// the chi-squared statistic of the bucket counts against the uniform
// expectation (lower is better; for a good hash it concentrates near the
// bucket count).
func ChiSquared(values []float64, buckets int) float64 {
	if buckets <= 0 || len(values) == 0 {
		return 0
	}
	counts := make([]float64, buckets)
	for _, v := range values {
		idx := int(v * float64(buckets))
		if idx >= buckets {
			idx = buckets - 1
		}
		counts[idx]++
	}
	expected := float64(len(values)) / float64(buckets)
	var chi float64
	for _, c := range counts {
		d := c - expected
		chi += d * d / expected
	}
	return chi
}

// CollisionScore estimates pairwise collision pressure at a given
// granularity g: the fraction of values sharing a cell with another value
// when the unit interval is cut into g cells. For uniform hashing it
// approaches 1-exp(-n/g) for n values.
func CollisionScore(values []float64, g int) float64 {
	if g <= 0 || len(values) == 0 {
		return 0
	}
	cells := make(map[int]int, len(values))
	for _, v := range values {
		idx := int(v * float64(g))
		if idx >= g {
			idx = g - 1
		}
		cells[idx]++
	}
	collided := 0
	for _, c := range cells {
		if c > 1 {
			collided += c
		}
	}
	return float64(collided) / float64(len(values))
}

// ExpectedCollisionScore is the uniform-hash baseline for CollisionScore.
func ExpectedCollisionScore(n, g int) float64 {
	if g <= 0 || n == 0 {
		return 0
	}
	// P(cell of a given value has another) = 1 - (1-1/g)^(n-1).
	return 1 - math.Pow(1-1/float64(g), float64(n-1))
}

// structuredKeys builds the low-entropy flow keys real networks produce:
// sequential host addresses behind a few prefixes, a handful of server
// ports — exactly the regime where weak hashes collapse.
func structuredKeys(n int) [][]byte {
	keys := make([][]byte, n)
	ports := []uint16{80, 443, 53, 25}
	for i := range keys {
		b := make([]byte, 13)
		src := 10<<24 | uint32(i%4)<<16 | uint32(i)
		dst := 10<<24 | uint32((i+1)%4)<<16 | uint32(i/2)
		binary.BigEndian.PutUint32(b[0:4], src)
		binary.BigEndian.PutUint32(b[4:8], dst)
		binary.BigEndian.PutUint16(b[8:10], uint16(1024+i%5000))
		binary.BigEndian.PutUint16(b[10:12], ports[i%len(ports)])
		b[12] = 6
		keys[i] = b
	}
	return keys
}

func TestBobBeatsStrawmanOnStructuredKeys(t *testing.T) {
	keys := structuredKeys(30000)
	const buckets = 64
	chi := map[string]float64{}
	for _, f := range AllFuncs() {
		vals := make([]float64, len(keys))
		for i, k := range keys {
			vals[i] = f.Unit(k, 7)
		}
		chi[f.Name()] = ChiSquared(vals, buckets)
	}
	// A uniform hash's chi-squared over 64 buckets concentrates near 63;
	// allow generous slack.
	for _, name := range []string{"bob", "fnv1a", "crc32"} {
		if chi[name] > 3*buckets {
			t.Errorf("%s chi-squared %v on structured keys, want < %d", name, chi[name], 3*buckets)
		}
	}
	// The byte-sum strawman must be visibly worse than Bob, reproducing
	// why the sampling literature rejects arithmetic hashes.
	if chi["byte-sum-modulo"] < 5*chi["bob"] {
		t.Errorf("strawman chi-squared %v not clearly above bob %v", chi["byte-sum-modulo"], chi["bob"])
	}
}

func TestCollisionScoreNearUniformExpectation(t *testing.T) {
	keys := structuredKeys(20000)
	g := 1 << 16
	want := ExpectedCollisionScore(len(keys), g)
	for _, f := range []Func{BobFunc{}, FNVFunc{}, CRCFunc{}} {
		vals := make([]float64, len(keys))
		for i, k := range keys {
			vals[i] = f.Unit(k, 3)
		}
		got := CollisionScore(vals, g)
		if math.Abs(got-want) > 0.1+0.5*want {
			t.Errorf("%s collision score %v, uniform expectation %v", f.Name(), got, want)
		}
	}
}

func TestCompareHelpersEdgeCases(t *testing.T) {
	if ChiSquared(nil, 8) != 0 || ChiSquared([]float64{0.5}, 0) != 0 {
		t.Fatal("degenerate chi-squared not zero")
	}
	if CollisionScore(nil, 8) != 0 || ExpectedCollisionScore(0, 8) != 0 {
		t.Fatal("degenerate collision scores not zero")
	}
	// Values at exactly 1.0 - epsilon must not index out of range.
	_ = ChiSquared([]float64{0.9999999}, 4)
	_ = CollisionScore([]float64{0.9999999}, 4)
}

func BenchmarkHashFuncs(b *testing.B) {
	keys := structuredKeys(1024)
	for _, f := range AllFuncs() {
		b.Run(f.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f.Unit(keys[i%len(keys)], 7)
			}
		})
	}
}
