package hashing

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestRangeClamp(t *testing.T) {
	cases := []struct {
		in, want Range
	}{
		{Range{-0.25, 0.5}, Range{0, 0.5}},
		{Range{0.5, 1.75}, Range{0.5, 1}},
		{Range{-1, 2}, Range{0, 1}},
		{Range{0.2, 0.8}, Range{0.2, 0.8}},
		{Range{1.5, 2}, Range{1, 1}}, // fully above: clamps to empty
	}
	for _, c := range cases {
		if got := c.in.Clamp(); got != c.want {
			t.Errorf("Clamp(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestSubtractExactWidthArithmetic(t *testing.T) {
	rs := RangeSet{{0, 0.5}, {0.75, 1}}
	shed := RangeSet{{0.25, 0.375}}
	got := rs.Subtract(shed)
	if w := got.Width(); math.Abs(w-(rs.Width()-0.125)) > 1e-15 {
		t.Fatalf("width %v, want exactly %v", w, rs.Width()-0.125)
	}
	// The cut is interior to the first range: it splits in two.
	want := RangeSet{{0, 0.25}, {0.375, 0.5}, {0.75, 1}}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("piece %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSubtractEmptyShedIsIdentity(t *testing.T) {
	rs := RangeSet{{0.1, 0.4}}
	if got := rs.Subtract(nil); got.Width() != rs.Width() || !got.Contains(0.2) {
		t.Fatalf("nil shed changed the set: %v", got)
	}
	if got := rs.Subtract(RangeSet{{0.6, 0.6}}); got.Width() != rs.Width() {
		t.Fatalf("empty-range shed changed the width: %v", got)
	}
}

func TestSubtractFullShedLeavesNothing(t *testing.T) {
	rs := RangeSet{{0, 0.3}, {0.3, 0.7}, {0.9, 1}}
	got := rs.Subtract(RangeSet{{0, 1}})
	if len(got) != 0 || got.Width() != 0 {
		t.Fatalf("full shed left %v", got)
	}
	if got.Contains(0.5) {
		t.Fatal("empty set claims to contain a point")
	}
}

func TestSubtractDisjointShedIsNoOp(t *testing.T) {
	rs := RangeSet{{0.2, 0.4}}
	got := rs.Subtract(RangeSet{{0.5, 0.9}})
	if got.Width() != 0.2 || !got.Contains(0.3) || got.Contains(0.5) {
		t.Fatalf("disjoint shed altered the set: %v", got)
	}
}

func TestSubtractEdgeTouchingCuts(t *testing.T) {
	rs := RangeSet{{0.25, 0.75}}
	// Cut exactly aligned with Lo: only the right remainder survives, and
	// the half-open convention keeps the boundary point out.
	got := rs.Subtract(RangeSet{{0.25, 0.5}})
	if got.Contains(0.25) || got.Contains(0.49) || !got.Contains(0.5) {
		t.Fatalf("lo-aligned cut wrong: %v", got)
	}
	// Cut aligned with Hi.
	got = rs.Subtract(RangeSet{{0.5, 0.75}})
	if !got.Contains(0.49) || got.Contains(0.5) {
		t.Fatalf("hi-aligned cut wrong: %v", got)
	}
}

func TestSubtractMultipleCutsAcrossMultipleRanges(t *testing.T) {
	rs := RangeSet{{0, 0.4}, {0.6, 1}}
	shed := RangeSet{{0.1, 0.2}, {0.35, 0.7}, {0.9, 2}} // last cut overhangs 1
	got := rs.Subtract(shed)
	wantWidth := 0.1 + 0.15 + 0.2 // [0,0.1) + [0.2,0.35) + [0.7,0.9)
	if math.Abs(got.Width()-wantWidth) > 1e-12 {
		t.Fatalf("width %v, want %v (pieces %v)", got.Width(), wantWidth, got)
	}
	for _, x := range []float64{0.05, 0.25, 0.8} {
		if !got.Contains(x) {
			t.Errorf("lost %v: %v", x, got)
		}
	}
	for _, x := range []float64{0.15, 0.5, 0.65, 0.95} {
		if got.Contains(x) {
			t.Errorf("failed to shed %v: %v", x, got)
		}
	}
}

func TestSubtractDoesNotMutateReceiver(t *testing.T) {
	rs := RangeSet{{0, 1}}
	_ = rs.Subtract(RangeSet{{0.4, 0.6}})
	if len(rs) != 1 || rs[0] != (Range{0, 1}) {
		t.Fatalf("receiver mutated: %v", rs)
	}
}

// AppendSubtract keeps dst's prefix and holds exactly the points of rs not
// in shed, at every endpoint and one ULP either side of it — the identity
// the coverage audit's exact counts rest on.
func TestAppendSubtractIsPointwiseDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 500; trial++ {
		rs, shed := randomRanges(rng), randomRanges(rng)
		prefix := RangeSet{{-5, -4}}
		got := rs.AppendSubtract(append(RangeSet(nil), prefix...), shed)
		if got[0] != prefix[0] {
			t.Fatalf("prefix overwritten: %v", got)
		}
		got = got[1:]
		var xs []float64
		for _, r := range append(append(RangeSet(nil), rs...), shed...) {
			for _, x := range []float64{r.Lo, r.Hi} {
				xs = append(xs, x, math.Nextafter(x, -2), math.Nextafter(x, 2))
			}
		}
		for _, x := range xs {
			if want := rs.Contains(x) && !shed.Contains(x); got.Contains(x) != want {
				t.Fatalf("rs %v shed %v: x=%v in result %v, want %v", rs, shed, x, got.Contains(x), want)
			}
		}
		if sub := rs.Subtract(shed); !slices.Equal(sub, got) {
			t.Fatalf("Subtract %v, AppendSubtract %v", sub, got)
		}
	}
}

// randomRanges draws up to four ranges, some empty, inverted or outside
// [0, 1).
func randomRanges(rng *rand.Rand) RangeSet {
	var rs RangeSet
	for k := rng.Intn(5); k > 0; k-- {
		lo := rng.Float64()*1.4 - 0.2
		rs = append(rs, Range{lo, lo + rng.Float64()*0.6 - 0.1})
	}
	return rs
}

// Subtracting into a buffer that has already grown allocates nothing.
func TestAppendSubtractAllocFree(t *testing.T) {
	rs := RangeSet{{0, 0.4}, {0.6, 1}}
	shed := RangeSet{{0.1, 0.2}, {0.35, 0.7}, {0.9, 2}}
	buf := rs.AppendSubtract(nil, shed)
	if a := testing.AllocsPerRun(100, func() { buf = rs.AppendSubtract(buf[:0], shed) }); a != 0 {
		t.Fatalf("AppendSubtract into a grown buffer: %v allocs, want 0", a)
	}
}
