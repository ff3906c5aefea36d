package hashing

import (
	"math"
	"math/rand"
	"testing"
)

// randomDisjointSet builds a disjoint RangeSet by cutting [0,1) at random
// points, keeping alternate pieces, and shuffling the slice order.
func randomDisjointSet(rng *rand.Rand, cuts int) RangeSet {
	pts := make([]float64, cuts)
	for i := range pts {
		pts[i] = rng.Float64()
	}
	pts = append(pts, 0, 1)
	for i := 1; i < len(pts); i++ {
		for j := i; j > 0 && pts[j] < pts[j-1]; j-- {
			pts[j], pts[j-1] = pts[j-1], pts[j]
		}
	}
	var rs RangeSet
	for i := 0; i+1 < len(pts); i += 2 {
		rs = append(rs, Range{Lo: pts[i], Hi: pts[i+1]})
	}
	rng.Shuffle(len(rs), func(i, j int) { rs[i], rs[j] = rs[j], rs[i] })
	return rs
}

// The arena must answer Contains exactly as the RangeSet it was built
// from, across group sizes that exercise both the linear and the binary
// search paths, including the half-open boundary points themselves.
func TestArenaContainsMatchesRangeSet(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 200; trial++ {
		rs := randomDisjointSet(rng, 1+rng.Intn(24))
		var a Arena
		sp := a.Append(rs)
		probes := make([]float64, 0, 64+4*len(rs))
		for i := 0; i < 64; i++ {
			probes = append(probes, rng.Float64())
		}
		for _, r := range rs {
			probes = append(probes, r.Lo, r.Hi, math.Nextafter(r.Lo, 0), math.Nextafter(r.Hi, 0))
		}
		for _, x := range probes {
			if got, want := a.Contains(sp, x), rs.Contains(x); got != want {
				t.Fatalf("trial %d: Contains(%v) = %v, RangeSet says %v (set %v)", trial, x, got, want, rs)
			}
		}
		if got, want := a.Width(sp), rs.Width(); math.Abs(got-want) > 1e-12 {
			t.Fatalf("trial %d: Width = %v, RangeSet says %v", trial, got, want)
		}
	}
}

// Overlapping input groups must still answer membership for the union.
func TestArenaCoalescesOverlaps(t *testing.T) {
	var a Arena
	sp := a.Append(RangeSet{{0.1, 0.5}, {0.3, 0.7}, {0.7, 0.8}, {0.95, 0.9}})
	cases := []struct {
		x    float64
		want bool
	}{
		{0.05, false}, {0.1, true}, {0.45, true}, {0.6, true},
		{0.75, true}, {0.8, false}, {0.92, false},
	}
	for _, c := range cases {
		if got := a.Contains(sp, c.x); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	if sp.Len() != 1 {
		t.Errorf("overlapping+touching ranges should coalesce to 1, got %d", sp.Len())
	}
}

// Spans handed out earlier must stay valid as the arena grows, and an
// empty group must answer false everywhere.
func TestArenaMultipleGroups(t *testing.T) {
	var a Arena
	sp1 := a.Append(RangeSet{{0.0, 0.25}})
	empty := a.Append(nil)
	sp2 := a.Append(RangeSet{{0.5, 0.75}})
	if !a.Contains(sp1, 0.1) || a.Contains(sp1, 0.5) {
		t.Error("sp1 membership wrong after growth")
	}
	if a.Contains(empty, 0.1) {
		t.Error("empty span contains something")
	}
	if !a.Contains(sp2, 0.6) || a.Contains(sp2, 0.1) {
		t.Error("sp2 membership wrong")
	}
}

// The query path must be allocation-free: this is the per-packet check.
func TestArenaContainsAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var a Arena
	sp := a.Append(randomDisjointSet(rng, 20))
	sink := false
	if n := testing.AllocsPerRun(1000, func() {
		sink = a.Contains(sp, 0.42) || sink
		sink = a.Contains(sp, 0.9142) || sink
	}); n != 0 {
		t.Fatalf("Arena.Contains allocates %v per run, want 0", n)
	}
	_ = sink
}

func BenchmarkArenaContains(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	for _, cuts := range []int{2, 8, 32} {
		rs := randomDisjointSet(rng, cuts)
		var a Arena
		sp := a.Append(rs)
		b.Run(map[int]string{2: "tiny", 8: "small", 32: "large"}[cuts], func(b *testing.B) {
			b.ReportAllocs()
			x, hits := 0.0, 0
			for i := 0; i < b.N; i++ {
				if a.Contains(sp, x) {
					hits++
				}
				x += 0.618033988749
				if x >= 1 {
					x -= 1
				}
			}
			_ = hits
		})
	}
}

// Width sums the widths of the span's ranges in storage order — a fixed
// order for a given build, independent of input permutation once the
// group has been sorted by Append.
func (a *Arena) Width(sp Span) float64 {
	var w float64
	for i := sp.Off; i < sp.End; i++ {
		if d := a.bounds[2*i+1] - a.bounds[2*i]; d > 0 {
			w += d
		}
	}
	return w
}
