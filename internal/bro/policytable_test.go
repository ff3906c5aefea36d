package bro

import (
	"encoding/binary"
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

// tableSizes is the slot count of the counter, value and pair tables.
func tableSizes(mt *moduleTables) [3]int {
	return [3]int{len(mt.counters.slots), len(mt.values.slots), 8 * mt.pairs.n}
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

// FuzzPolicyTables feeds arbitrary addSet/incr streams over raw float64 bit
// patterns through the flat tables and the Go-map model: every returned
// value must match, and memBytes and the contents at the end. An input is a
// sequence of ops: one byte — bit 0 picks incr over addSet — then each
// operand, either a byte with its top bit set, naming one of the last eight
// operands (so streams repeat keys and pairs), or a byte without it and
// eight little-endian bytes of a float64. The seeds pair every edge of the
// member packing: ±0, 2³²−1, 2³², ½, ±Inf, subnormals, negative integers
// and NaN payloads.
func FuzzPolicyTables(f *testing.F) {
	edges := []uint64{
		0, 1 << 63, math.Float64bits(1<<32 - 1), math.Float64bits(1 << 32), math.Float64bits(0.5),
		math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1)), 1, 1<<63 | 1,
		math.Float64bits(-1), math.Float64bits(1 << 31), nanBits, 0x7FF0000000000001, 0xFFF8000000000000,
	}
	raw := func(v uint64) []byte { return binary.LittleEndian.AppendUint64([]byte{0}, v) }
	for _, k := range edges {
		var in []byte
		for _, m := range edges {
			in = append(append(append(in, 0), raw(k)...), raw(m)...)
			in = append(in, 0, 0x81, 0x80, 1, 0x80, 0, 0x80, 0x81) // addSet(k, m) again; incr(m); addSet(m, k)
		}
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		var mt moduleTables
		ref := newRefTables()
		var recent [8]float64
		n := 0
		operand := func() (float64, bool) {
			if len(in) == 0 {
				return 0, false
			}
			b := in[0]
			if b&0x80 != 0 {
				in = in[1:]
				return recent[(n-1-int(b&7))&7], true
			}
			if len(in) < 9 {
				return 0, false
			}
			v := math.Float64frombits(binary.LittleEndian.Uint64(in[1:9]))
			in = in[9:]
			recent[n&7] = v
			n++
			return v, true
		}
		for op := 0; len(in) > 0; op++ {
			incr := in[0]&1 != 0
			in = in[1:]
			key, ok := operand()
			if !ok {
				break
			}
			var got, want float64
			if incr {
				got, want = mt.incr(key), ref.incr(key)
			} else {
				member, ok := operand()
				if !ok {
					break
				}
				got, want = mt.addSet(key, member), ref.addSet(key, member)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("op %d (incr %v, key %x): table returned %v, model %v", op, incr, math.Float64bits(key), got, want)
			}
		}
		if g, w := mt.memBytes(), ref.memBytes(); g != w {
			t.Fatalf("memBytes %v, model %v", g, w)
		}
		if g, w := tableDump(&mt), refDump(ref); !reflect.DeepEqual(g, w) {
			t.Fatalf("table contents %v, model %v", g, w)
		}
	})
}

// edgeTrace is node_edge's input: Internet2 node 10's share of a
// 100,000-session trace (about 47,000 sessions).
func edgeTrace(b *testing.B) []traffic.Session {
	topo := topology.Internet2()
	return nodeTraceFor(topo, mixedTrace(b, 100000), 10)
}

// BenchmarkPolicyTables times the flat tables against the Go-map model on
// node_edge's table work: per session of node 10's share of the 100k trace,
// scan's (source, destination) insert and synflood's per-destination
// counter, from empty tables each op as every bro.Run starts. The
// "flat-nonint" arm offsets every member by ½, so no member packs into its
// pair word and each takes an id from the value table instead.
func BenchmarkPolicyTables(b *testing.B) {
	trace := edgeTrace(b)
	for _, arm := range []struct {
		name   string
		offset float64
	}{{"flat", 0}, {"flat-nonint", 0.5}} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var scan, syn moduleTables
				for j := range trace {
					tu := &trace[j].Tuple
					scan.addSet(float64(tu.SrcIP), float64(tu.DstIP)+arm.offset)
					syn.incr(float64(tu.DstIP))
				}
			}
		})
	}
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
