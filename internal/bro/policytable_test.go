package bro

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"nwdeploy/internal/topology"
	"nwdeploy/internal/traffic"
)

// TestPolicyTableGrowth drives the flat tables through every growth they
// make against the Go-map model. The compiler's property test draws a few
// keys per script and never grows a table past its first array; here 2·10⁵
// interleaved addSet/incr calls reach tens of thousands of entries, over
// IPv4-shaped keys 4096 apart, whose low bits all agree (the low 36 bits of
// their float64 patterns are zero), ±0, ±Inf, subnormals, NaN and repeats of
// recent draws. Every returned value is compared, and the whole contents and
// memBytes after each growth of any of the three tables.
func TestPolicyTableGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	specials := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1040, 0.5, math.MaxFloat64,
	}
	var recent [64]float64
	draw := func(distinct int) float64 {
		var v float64
		switch r := rng.Intn(100); {
		case r < 5:
			v = specials[rng.Intn(len(specials))]
		case r < 35:
			v = recent[rng.Intn(len(recent))]
		default:
			v = float64(10<<24 + uint32(rng.Intn(distinct))<<12) // 10.x.y.0 and up
		}
		recent[rng.Intn(len(recent))] = v
		return v
	}
	var mt moduleTables
	ref := newRefTables()
	const calls = 200000
	last, growths := tableSizes(&mt), 0
	for i := 0; i < calls; i++ {
		var got, want float64
		if rng.Intn(2) == 0 {
			key, member := draw(3000), draw(40000)
			got, want = mt.addSet(key, member), ref.addSet(key, member)
		} else {
			key := draw(30000)
			got, want = mt.incr(key), ref.incr(key)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("call %d: table returned %v, model %v", i, got, want)
		}
		if now := tableSizes(&mt); now != last || i == calls-1 {
			growths++
			last = now
			if g, w := mt.memBytes(), ref.memBytes(); g != w {
				t.Fatalf("call %d (sizes %v): memBytes %v, model %v", i, now, g, w)
			}
			if g, w := tableDump(&mt), refDump(ref); !reflect.DeepEqual(g, w) {
				t.Fatalf("call %d (sizes %v): table contents differ from the model", i, now)
			}
		}
	}
	if s := tableSizes(&mt); s[0] < 1<<14 || s[1] < 1<<12 || s[2] < 1<<16 || growths < 30 {
		t.Fatalf("weak draw: final sizes %v after %d growths", s, growths)
	}
}

// tableSizes is the slot count of the counter, cardinality and member tables.
func tableSizes(mt *moduleTables) [3]int {
	return [3]int{len(mt.counters.slots), len(mt.cards.slots), len(mt.members.slots)}
}

// Re-inserting present keys and members, and incrementing present counters,
// must not allocate: only a new key can grow a table.
func TestPolicyTableAllocFree(t *testing.T) {
	var mt moduleTables
	const keys = 96 // 96 counters fill 128 slots to exactly ¾: the next new key would grow
	for k := 0; k < keys; k++ {
		mt.incr(float64(k))
		for m := 0; m < 4; m++ {
			mt.addSet(float64(k), float64(m))
		}
	}
	before, k := tableSizes(&mt), 0
	if n := testing.AllocsPerRun(1000, func() {
		mt.incr(float64(k))
		mt.addSet(float64(k), float64(k&3))
		k = (k + 1) % keys
	}); n != 0 {
		t.Fatalf("re-inserting present keys allocates %v per op, want 0", n)
	}
	// AllocsPerRun's unmeasured warm-up call would hide one growth.
	if after := tableSizes(&mt); after != before {
		t.Fatalf("re-inserting present keys grew the tables from %v to %v slots", before, after)
	}
}

// BenchmarkPolicyTables times the flat tables against the Go-map model on
// node_edge's table work: per session of a 3000-session Internet2 trace,
// scan's (source, destination) insert and synflood's per-destination
// counter, from empty tables each op as every bro.Run starts.
func BenchmarkPolicyTables(b *testing.B) {
	topo := topology.Internet2()
	trace := traffic.Generate(topo, traffic.Gravity(topo), traffic.GenConfig{Sessions: 3000, Seed: 17})
	b.Run("flat", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var scan, syn moduleTables
			for j := range trace {
				tu := &trace[j].Tuple
				scan.addSet(float64(tu.SrcIP), float64(tu.DstIP))
				syn.incr(float64(tu.DstIP))
			}
		}
	})
	b.Run("gomap", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			scan, syn := newRefTables(), newRefTables()
			for j := range trace {
				tu := &trace[j].Tuple
				scan.addSet(float64(tu.SrcIP), float64(tu.DstIP))
				syn.incr(float64(tu.DstIP))
			}
		}
	})
}
