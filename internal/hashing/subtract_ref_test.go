package hashing

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// refAppendSubtract is the quadratic subtraction AppendSubtract replaced,
// kept as its oracle: every piece is tested against every cut, in the
// order the cuts come. Do not optimise it.
func refAppendSubtract(rs RangeSet, dst, shed RangeSet) RangeSet {
	for _, r := range rs {
		// dst[start:] holds r's surviving pieces; each cut appends their
		// remainders after them and slides those down over the old ones.
		start := len(dst)
		dst = append(dst, r)
		for _, cut := range shed {
			if cut.IsEmpty() {
				continue
			}
			end := len(dst)
			for i := start; i < end; i++ {
				p := dst[i]
				// Left remainder [p.Lo, cut.Lo) and right remainder
				// [cut.Hi, p.Hi); empty pieces drop out.
				if left := (Range{p.Lo, math.Min(p.Hi, cut.Lo)}); !left.IsEmpty() {
					dst = append(dst, left)
				}
				if right := (Range{math.Max(p.Lo, cut.Hi), p.Hi}); !right.IsEmpty() {
					dst = append(dst, right)
				}
			}
			dst = dst[:start+copy(dst[start:], dst[end:])]
			if len(dst) == start {
				break
			}
		}
	}
	return dst
}

// sameBits reports whether two sets hold the same pieces in the same order,
// endpoint for endpoint.
func sameBits(a, b RangeSet) bool {
	return slices.EqualFunc(a, b, func(x, y Range) bool {
		return math.Float64bits(x.Lo) == math.Float64bits(y.Lo) && math.Float64bits(x.Hi) == math.Float64bits(y.Hi)
	})
}

// checkAgainstReference holds AppendSubtract to the oracle, and checks it
// leaves shed as it found it.
func checkAgainstReference(t *testing.T, rs, shed RangeSet) {
	t.Helper()
	orig := slices.Clone(shed)
	got := rs.AppendSubtract(nil, shed)
	if want := refAppendSubtract(rs, nil, shed); !sameBits(got, want) {
		t.Fatalf("rs %v shed %v:\n got %v\nwant %v", rs, shed, got, want)
	}
	if !sameBits(shed, orig) {
		t.Fatalf("shed mutated: %v, was %v", shed, orig)
	}
}

// gridRanges decodes byte pairs as ranges on a grid of 1/64 steps over
// [-1, 3): coarse enough that endpoints coincide, touch and nest often,
// and free of NaN and -0, outside which the two subtractions agree bit
// for bit.
func gridRanges(b []byte) RangeSet {
	var rs RangeSet
	for ; len(b) >= 2; b = b[2:] {
		rs = append(rs, Range{float64(int(b[0])-64) / 64, float64(int(b[1])-64) / 64})
	}
	return rs
}

func TestAppendSubtractMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cases := [][2]RangeSet{
		{nil, nil},
		{{{0.2, 0.4}}, nil},
		{{{0.4, 0.2}, {0.3, 0.3}}, {{0.6, 0.6}}}, // inverted and empty, nothing cut: kept
		{{{0.4, 0.2}, {0.3, 0.3}, {0, 1}}, {{0.5, 0.6}}},
		{{{0, 1}}, {{0.7, 0.9}, {0.1, 0.2}, {0.15, 0.3}}}, // unsorted, overlapping
		{{{0, 1}}, {{0.1, 0.2}, {0.2, 0.3}}},              // touching
		{{{0, 0.5}, {0.25, 1}}, {{0.3, 0.4}}},             // overlapping ranges
		{{{0.2, 0.4}}, {{0.4, 0.5}, {0.1, 0.2}}},          // cuts touching the range only
	}
	for trial := 0; trial < 2000; trial++ {
		cases = append(cases, [2]RangeSet{randomRanges(rng), randomRanges(rng)})
	}
	for _, c := range cases {
		checkAgainstReference(t, c[0], c[1])
	}
}

func FuzzSubtract(f *testing.F) {
	f.Add([]byte{64, 128, 96, 112}, uint8(2))
	f.Add([]byte{64, 128, 160, 192, 70, 100, 90, 170, 60, 66}, uint8(4))
	f.Add([]byte{100, 90, 80, 80, 64, 128, 72, 80, 66, 75, 120, 140}, uint8(6))
	f.Fuzz(func(t *testing.T, data []byte, split uint8) {
		n := min(int(split)&^1, len(data))
		checkAgainstReference(t, gridRanges(data[:n]), gridRanges(data[n:]))
	})
}

// A hostile manifest — many ranges and a shed section of as many cuts for
// the same key — must cost the agent milliseconds, not the minute the
// quadratic subtraction took at this size. Shuffled cuts take the
// sort-and-merge path.
func TestSubtractScalesOnHostileInput(t *testing.T) {
	const n = 1 << 16
	rs, cuts := make(RangeSet, n), make(RangeSet, n)
	for i := range rs {
		rs[i] = Range{float64(2*i) / (2 * n), float64(2*i+1) / (2 * n)}
		cuts[i] = Range{(float64(2*i) + 0.5) / (2 * n), (float64(2*i) + 1.5) / (2 * n)}
	}
	shuffled := slices.Clone(cuts)
	rand.New(rand.NewSource(3)).Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	for name, shed := range map[string]RangeSet{"sorted": cuts, "shuffled": shuffled} {
		start := time.Now()
		got := rs.AppendSubtract(nil, shed)
		if el := time.Since(start); el > time.Second {
			t.Errorf("%s: %d ranges minus %d cuts took %v, want under 1 s", name, n, n, el)
		}
		if len(got) != n {
			t.Fatalf("%s: %d pieces, want %d", name, len(got), n)
		}
		for i, p := range got {
			if p != (Range{rs[i].Lo, cuts[i].Lo}) {
				t.Fatalf("%s: piece %d = %v, want [%v, %v)", name, i, p, rs[i].Lo, cuts[i].Lo)
			}
		}
	}
}
