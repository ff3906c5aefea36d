package traffic

import (
	"math"
	"testing"
	"testing/quick"

	"nwdeploy/internal/topology"
)

func TestGravitySumsToOne(t *testing.T) {
	for _, tp := range []*topology.Topology{topology.Internet2(), topology.Geant()} {
		m := Gravity(tp)
		if math.Abs(m.Sum()-1) > 1e-9 {
			t.Fatalf("%s: gravity sum = %v, want 1", tp.Name, m.Sum())
		}
		for a := range m {
			if m[a][a] != 0 {
				t.Fatalf("%s: nonzero diagonal at %d", tp.Name, a)
			}
		}
	}
}

func TestGravityNewYorkDominates(t *testing.T) {
	// The paper: "node 11 ... corresponds to New York, which in a gravity
	// model based traffic matrix carries a significant volume of traffic."
	tp := topology.Internet2()
	m := Gravity(tp)
	ny, _ := tp.NodeByName("NYCM")
	vol := make([]float64, tp.N())
	for a := range m {
		for b := range m[a] {
			vol[a] += m[a][b]
			vol[b] += m[a][b]
		}
	}
	for i, v := range vol {
		if i != ny.ID && v >= vol[ny.ID] {
			t.Fatalf("node %d volume %v >= NYC volume %v", i, v, vol[ny.ID])
		}
	}
}

func TestTopPairsOrderedAndBounded(t *testing.T) {
	tp := topology.Internet2()
	m := Gravity(tp)
	pairs := m.TopPairs(10)
	if len(pairs) != 10 {
		t.Fatalf("got %d pairs, want 10", len(pairs))
	}
	for i := 1; i < len(pairs); i++ {
		prev := m[pairs[i-1][0]][pairs[i-1][1]]
		cur := m[pairs[i][0]][pairs[i][1]]
		if cur > prev+1e-15 {
			t.Fatalf("pairs not sorted descending at %d: %v > %v", i, cur, prev)
		}
	}
	// Asking for more pairs than exist returns all of them.
	all := m.TopPairs(10_000)
	if len(all) != tp.N()*(tp.N()-1) {
		t.Fatalf("TopPairs(all) = %d, want %d", len(all), tp.N()*(tp.N()-1))
	}
}

func TestGenerateDeterministicAndWellFormed(t *testing.T) {
	tp := topology.Internet2()
	m := Gravity(tp)
	cfg := GenConfig{Sessions: 5000, Seed: 99}
	a := Generate(tp, m, cfg)
	b := Generate(tp, m, cfg)
	if len(a) != 5000 {
		t.Fatalf("generated %d sessions, want 5000", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("generation not deterministic at session %d", i)
		}
		s := a[i]
		if s.Src == s.Dst {
			t.Fatalf("session %d has equal endpoints", i)
		}
		if s.Packets < 2 {
			t.Fatalf("session %d has %d packets, want >= 2", i, s.Packets)
		}
		if s.Bytes < s.Packets*20 {
			t.Fatalf("session %d bytes %d below header floor", i, s.Bytes)
		}
		if NodeOfIP(s.Tuple.SrcIP) != s.Src || NodeOfIP(s.Tuple.DstIP) != s.Dst {
			t.Fatalf("session %d IP prefixes disagree with endpoints", i)
		}
		if s.Tuple.DstPort != s.Proto.Port {
			t.Fatalf("session %d server port %d != protocol port %d", i, s.Tuple.DstPort, s.Proto.Port)
		}
	}
}

func TestGenerateFollowsMatrix(t *testing.T) {
	tp := topology.Internet2()
	m := Gravity(tp)
	sessions := Generate(tp, m, GenConfig{Sessions: 60000, Seed: 4})
	counts := make([][]float64, tp.N())
	for i := range counts {
		counts[i] = make([]float64, tp.N())
	}
	for _, s := range sessions {
		counts[s.Src][s.Dst]++
	}
	for a := range m {
		for b := range m[a] {
			if a == b {
				continue
			}
			got := counts[a][b] / float64(len(sessions))
			if math.Abs(got-m[a][b]) > 0.01+0.3*m[a][b] {
				t.Fatalf("pair (%d,%d): empirical share %v vs gravity %v", a, b, got, m[a][b])
			}
		}
	}
}

func TestGenerateFollowsProfile(t *testing.T) {
	tp := topology.Internet2()
	m := Gravity(tp)
	prof := MixedProfile()
	sessions := Generate(tp, m, GenConfig{Sessions: 40000, Seed: 8, Profile: prof})
	byProto := map[string]float64{}
	for _, s := range sessions {
		byProto[s.Proto.Name]++
	}
	for _, e := range prof {
		got := byProto[e.Proto.Name] / float64(len(sessions))
		if math.Abs(got-e.Share) > 0.02 {
			t.Fatalf("%s: share %v, want ~%v", e.Proto.Name, got, e.Share)
		}
	}
}

func TestSingleProtocolProfile(t *testing.T) {
	tp := topology.Internet2()
	m := Gravity(tp)
	sessions := Generate(tp, m, GenConfig{Sessions: 500, Seed: 2, Profile: SingleProtocolProfile(IRC)})
	for _, s := range sessions {
		if s.Proto.Name != "irc" {
			t.Fatalf("got protocol %s, want irc", s.Proto.Name)
		}
	}
}

func TestVolumesScaleWithTopologySize(t *testing.T) {
	i2 := topology.Internet2()
	ge := topology.Geant()
	v1 := Volumes(i2, Gravity(i2), 0)
	v2 := Volumes(ge, Gravity(ge), 0)
	sum := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s
	}
	if math.Abs(sum(v1.Items)-Internet2BaselineFlows) > 1 {
		t.Fatalf("Internet2 flow total = %v, want %v", sum(v1.Items), Internet2BaselineFlows)
	}
	wantGeant := Internet2BaselineFlows * float64(ge.N()) / 11
	if math.Abs(sum(v2.Items)-wantGeant) > 1 {
		t.Fatalf("Geant flow total = %v, want %v", sum(v2.Items), wantGeant)
	}
}

func TestVolumesPathCapKeepsPerPathShares(t *testing.T) {
	tp := topology.Geant()
	m := Gravity(tp)
	full := Volumes(tp, m, 0)
	capped := Volumes(tp, m, 25)
	if len(capped.Pairs) != 25 {
		t.Fatalf("capped to %d pairs, want 25", len(capped.Pairs))
	}
	// Each kept pair must retain exactly its full-matrix volume: capping
	// drops the tail, it must not inflate the heavy paths.
	fullByPair := map[[2]int]float64{}
	for i, p := range full.Pairs {
		fullByPair[p] = full.Items[i]
	}
	for i, p := range capped.Pairs {
		if math.Abs(capped.Items[i]-fullByPair[p]) > 1e-9*fullByPair[p] {
			t.Fatalf("pair %v volume changed under capping: %v vs %v", p, capped.Items[i], fullByPair[p])
		}
	}
}

func TestMatchRatesInRangeQuick(t *testing.T) {
	f := func(seed int64) bool {
		m := MatchRates(7, 13, 0, 0.01, seed)
		for _, row := range m {
			for _, v := range row {
				if v < 0 || v >= 0.01 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMatchRatesDeterministic(t *testing.T) {
	a := MatchRates(3, 4, 0, 0.01, 77)
	b := MatchRates(3, 4, 0, 0.01, 77)
	for i := range a {
		for k := range a[i] {
			if a[i][k] != b[i][k] {
				t.Fatal("match rates not deterministic for fixed seed")
			}
		}
	}
}

func TestProfileNormalization(t *testing.T) {
	p := Profile{{HTTP, 2}, {DNS, 2}}.normalize()
	if math.Abs(p[0].Share-0.5) > 1e-12 || math.Abs(p[1].Share-0.5) > 1e-12 {
		t.Fatalf("normalize gave %v", p)
	}
}

func TestNodeHostIPRoundTrip(t *testing.T) {
	for n := 0; n < 60; n++ {
		for _, h := range []int{0, 1, 255, 256, 65535} {
			if got := NodeOfIP(nodeHostIP(n, h)); got != n {
				t.Fatalf("NodeOfIP(nodeHostIP(%d,%d)) = %d", n, h, got)
			}
		}
	}
}

func TestMatchRatesDistShapes(t *testing.T) {
	const high = 0.01
	for _, d := range []MatchDist{DistUniform, DistExponential, DistBimodal} {
		m := MatchRatesDist(d, 40, 40, high, 9)
		var sum float64
		var over float64
		n := 0
		for i := range m {
			for k := range m[i] {
				v := m[i][k]
				if v < 0 || v >= high {
					t.Fatalf("%v: value %v outside [0, %v)", d, v, high)
				}
				sum += v
				if v > high/2 {
					over++
				}
				n++
			}
		}
		mean := sum / float64(n)
		switch d {
		case DistUniform:
			if mean < 0.4*high || mean > 0.6*high {
				t.Fatalf("uniform mean %v, want ~%v", mean, high/2)
			}
		case DistExponential:
			// Truncated exponential: mean below high/2, skewed low.
			if mean > 0.5*high {
				t.Fatalf("exponential mean %v too high", mean)
			}
		case DistBimodal:
			// ~10% of cells sit in the hot mode above high/2.
			frac := over / float64(n)
			if frac < 0.05 || frac > 0.2 {
				t.Fatalf("bimodal hot fraction %v, want ~0.1", frac)
			}
		}
	}
	if DistUniform.String() != "uniform" || DistExponential.String() != "exponential" ||
		DistBimodal.String() != "bimodal" || MatchDist(9).String() != "MatchDist(9)" {
		t.Fatal("distribution names wrong")
	}
}

// Sum returns the total of all matrix entries (1.0 for a gravity matrix, up
// to rounding).
func (m Matrix) Sum() float64 {
	var s float64
	for _, row := range m {
		for _, v := range row {
			s += v
		}
	}
	return s
}

// SingleProtocolProfile returns a profile consisting entirely of one
// protocol, used by the standalone module microbenchmarks.
func SingleProtocolProfile(proto Protocol) Profile {
	return Profile{{proto, 1}}
}
