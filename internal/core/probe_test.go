package core

import (
	"math"
	"math/rand"
	"testing"

	"nwdeploy/internal/hashing"
	"nwdeploy/internal/topology"
	"nwdeploy/internal/traffic"
)

// probeCoverageRef is the point-by-point probe ProbeCoverage replaced: it
// asks covers about every midpoint of every unit. It is the oracle the
// range count must match bit for bit.
func probeCoverageRef(nUnits, probes int, covers func(unit int, x float64) bool) (worst, avg float64) {
	if nUnits == 0 {
		return 1, 1
	}
	if probes <= 0 {
		probes = 10000
	}
	worst = 1
	for ui := 0; ui < nUnits; ui++ {
		coveredPts := 0
		for t := 0; t < probes; t++ {
			x := (float64(t) + 0.5) / float64(probes)
			if covers(ui, x) {
				coveredPts++
			}
		}
		frac := float64(coveredPts) / float64(probes)
		if frac < worst {
			worst = frac
		}
		avg += frac
	}
	avg /= float64(nUnits)
	return worst, avg
}

// refCount is the oracle's per-unit count for one range set.
func refCount(rs hashing.RangeSet, probes int) int {
	n := 0
	for t := 0; t < probes; t++ {
		if rs.Contains((float64(t) + 0.5) / float64(probes)) {
			n++
		}
	}
	return n
}

// checkAgainstOracle compares the range probe with the point probe on the
// given per-unit sets: every per-unit count, then worst and avg as bits.
func checkAgainstOracle(t *testing.T, sets []hashing.RangeSet, probes int) {
	t.Helper()
	for ui, rs := range sets {
		got := probeCount(append(hashing.RangeSet(nil), rs...), probes)
		if want := refCount(rs, probes); got != want {
			t.Fatalf("probes=%d unit %d %v: count %d, oracle %d", probes, ui, rs, got, want)
		}
	}
	gw, ga := ProbeCoverage(len(sets), probes, func(ui int, dst hashing.RangeSet) hashing.RangeSet {
		return append(dst, sets[ui]...)
	})
	ww, wa := probeCoverageRef(len(sets), probes, func(ui int, x float64) bool { return sets[ui].Contains(x) })
	if math.Float64bits(gw) != math.Float64bits(ww) || math.Float64bits(ga) != math.Float64bits(wa) {
		t.Fatalf("probes=%d: (worst, avg) = (%v, %v), oracle (%v, %v)", probes, gw, ga, ww, wa)
	}
}

var oracleProbes = []int{1, 2, 3, 7, 500, 2000, 10000}

// randomEndpoint draws an endpoint that is usually a probe midpoint or one
// ULP either side of one, and otherwise a plain or out-of-[0,1) value.
func randomEndpoint(rng *rand.Rand, probes int) float64 {
	switch rng.Intn(6) {
	case 0:
		return rng.Float64()
	case 1:
		return rng.Float64()*3 - 1 // [-1, 2)
	case 2:
		return float64(rng.Intn(3)) // 0, 1, 2
	}
	x := probeAt(rng.Intn(probes), probes)
	switch rng.Intn(3) {
	case 0:
		return math.Nextafter(x, math.Inf(-1))
	case 1:
		return math.Nextafter(x, math.Inf(1))
	}
	return x
}

func TestProbeCoverageMatchesOracle(t *testing.T) {
	for _, probes := range oracleProbes {
		m := func(t int) float64 { return probeAt(t%probes, probes) }
		down := func(x float64) float64 { return math.Nextafter(x, 0) }
		up := func(x float64) float64 { return math.Nextafter(x, 2) }
		fixed := []hashing.RangeSet{
			nil,
			rs(0, 1),
			// Endpoints exactly on midpoints, and one ULP either side.
			rs(m(0), m(1)),
			rs(down(m(0)), up(m(1))),
			rs(up(m(0)), down(m(1))),
			rs(m(1), m(1)),
			rs(down(m(2)), m(2)),
			rs(m(2), up(m(2))),
			// Overlapping, adjacent and nested.
			rs(0.1, 0.5, 0.3, 0.7),
			rs(0.2, 0.4, 0.4, 0.6, m(3), m(5)),
			rs(0.1, 0.9, 0.2, 0.3, 0.25, 0.26),
			rs(0.5, 0.6, 0.1, 0.2, 0.55, 0.65, 0.15, 0.5),
			// Empty, inverted and outside [0,1).
			rs(0.4, 0.4, 0.7, 0.3),
			rs(-0.5, 0.25, 0.75, 1.5),
			rs(-2, -1, 1, 3),
			rs(math.Inf(-1), m(0), m(probes-1), math.Inf(1)),
			rs(math.NaN(), 0.5, 0.5, math.NaN()),
		}
		checkAgainstOracle(t, fixed, probes)

		rng := rand.New(rand.NewSource(int64(probes)))
		for trial := 0; trial < 200; trial++ {
			sets := make([]hashing.RangeSet, 1+rng.Intn(4))
			for ui := range sets {
				for k := rng.Intn(6); k > 0; k-- {
					lo := randomEndpoint(rng, probes)
					hi := lo + rng.Float64()*0.4
					if rng.Intn(2) == 0 {
						hi = randomEndpoint(rng, probes)
					}
					sets[ui] = append(sets[ui], hashing.Range{Lo: lo, Hi: hi})
				}
			}
			checkAgainstOracle(t, sets, probes)
		}
	}
}

// CoverageUnderFailure over a solved plan equals the point probe of its old
// predicate bit for bit, with nodes j and j+3 failed for every j.
func TestCoverageUnderFailureMatchesOracle(t *testing.T) {
	topo := topology.Internet2()
	sessions := traffic.Generate(topo, traffic.Gravity(topo), traffic.GenConfig{Sessions: 2000, Seed: 61})
	classes := []Class{{Name: "signature", Scope: PerPath, Agg: BySession, CPUPerPkt: 1, MemPerItem: 400}}
	inst, err := BuildInstance(topo, classes, sessions, UniformCaps(topo.N(), 1e7, 1e9))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Solve(inst, 2)
	if err != nil {
		t.Fatal(err)
	}
	for j := -1; j < topo.N(); j++ {
		gw, ga := CoverageUnderFailure(plan, []int{j, (j + 3) % topo.N()})
		ww, wa := probeCoverageRef(len(inst.Units), 0, func(ui int, x float64) bool {
			for _, node := range inst.Units[ui].Nodes {
				if node != j && node != (j+3)%topo.N() && plan.Manifests[node].Ranges[ui].Contains(x) {
					return true
				}
			}
			return false
		})
		if math.Float64bits(gw) != math.Float64bits(ww) || math.Float64bits(ga) != math.Float64bits(wa) {
			t.Fatalf("failed %d: (%v, %v), oracle (%v, %v)", j, gw, ga, ww, wa)
		}
	}
}

// The audit allocates nothing once its recycled buffer has grown, however
// many units it counts, when the covered callback appends into the buffer
// it is handed.
func TestProbeCoverageAllocFree(t *testing.T) {
	sets := []hashing.RangeSet{rs(0.1, 0.4, 0.3, 0.5), rs(0.9, 1, 0, 0.2, 0.5, 0.6), nil}
	covered := func(ui int, dst hashing.RangeSet) hashing.RangeSet { return append(dst, sets[ui%len(sets)]...) }
	if a := testing.AllocsPerRun(20, func() { ProbeCoverage(3000, 2000, covered) }); a != 0 {
		t.Fatalf("ProbeCoverage over 3000 units: %v allocs per call, want 0", a)
	}
}

// FuzzProbeCoverage checks the range count against the point probe on
// three arbitrary finite ranges. Bit i of snap (i < 4) moves endpoint i
// onto a probe midpoint, and bit 4+i then one ULP off it (up for a Lo,
// down for a Hi), where a count most easily goes wrong.
func FuzzProbeCoverage(f *testing.F) {
	f.Add(uint16(2000), uint8(0), 0.1, 0.5, 0.3, 0.7, -0.2, 0.05)
	f.Add(uint16(7), uint8(0x0f), 0.0, 0.5, 0.5, 1.0, 0.2, 0.2)
	f.Add(uint16(3), uint8(0x3f), 0.9, 0.1, -1.0, 2.0, 0.4, 0.6)
	f.Add(uint16(1), uint8(0x15), 0.5, 0.5, 0.0, 0.5, 0.5, 1.0)
	f.Fuzz(func(t *testing.T, p uint16, snap uint8, a, b, c, d, e, g float64) {
		probes := int(p)%10000 + 1
		ends := []float64{a, b, c, d, e, g}
		for i, v := range ends {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip("non-finite endpoint")
			}
			if i < 4 && snap&(1<<i) != 0 {
				k := int(math.Abs(math.Mod(v, 1)) * float64(probes))
				ends[i] = probeAt(min(k, probes-1), probes)
				if snap&(1<<(4+i)) != 0 {
					dir := math.Inf(1 - 2*(i%2)) // +Inf for a Lo, -Inf for a Hi
					ends[i] = math.Nextafter(ends[i], dir)
				}
			}
		}
		sets := []hashing.RangeSet{rs(ends...)}
		checkAgainstOracle(t, sets, probes)
	})
}

// rs builds a range set from (Lo, Hi) endpoint pairs, in order.
func rs(ends ...float64) hashing.RangeSet {
	out := make(hashing.RangeSet, 0, len(ends)/2)
	for i := 0; i+1 < len(ends); i += 2 {
		out = append(out, hashing.Range{Lo: ends[i], Hi: ends[i+1]})
	}
	return out
}
