package conntrack

import (
	"math/rand"
	"testing"
	"time"

	"nwdeploy/internal/hashing"
)

// sameRecord reports whether the flat table's record and the reference's
// agree on every field a caller can see.
func sameRecord(got *Conn, want *refConn) bool {
	return got.Tuple == want.Tuple && got.FirstSeen == want.FirstSeen && got.LastSeen == want.LastSeen &&
		got.Packets == want.Packets && got.Bytes == want.Bytes &&
		got.SessionHash == want.SessionHash && got.FlowHash == want.FlowHash &&
		got.SourceHash == want.SourceHash && got.DestHash == want.DestHash && got.Slot == want.Slot
}

// opTuple draws one of 4096 tuples from two bytes: 16 × 16 addresses, two
// ports a side and both protocols, so records meet both directions of a
// flow and the index grows past its initial size.
func opTuple(a, b byte) hashing.FiveTuple {
	proto := uint8(6)
	if b&0x10 != 0 {
		proto = 17
	}
	return hashing.FiveTuple{
		SrcIP: 0x0a000000 | uint32(a&15), DstIP: 0x0a000000 | uint32(a>>4),
		SrcPort: 1000 + uint16(b&3), DstPort: 1000 + uint16(b>>2&3), Proto: proto,
	}
}

// checkOps runs an op stream through the flat table and the reference and
// fails on the first difference in a return value, a record field, Len or
// Stats. data[0] picks the configuration: bits 0-2 MaxEntries (0 means
// unbounded), bit 3 monotone time; data[1] the idle timeout in seconds.
// Each later 4 bytes is one op: an Update (with its packet and byte
// counts), a Lookup, or an Expire, then a tuple, then a clock step, which
// goes back in time unless the stream is monotone. Timestamps fall on whole
// seconds, so records tie and expiry meets its cutoff exactly — except
// under an entry budget, where op i adds i ns: the reference heap breaks
// LastSeen ties arbitrarily, so eviction is compared at distinct times.
func checkOps(t *testing.T, data []byte) {
	if len(data) < 2 {
		return
	}
	cfg := Config{MaxEntries: int(data[0] & 7), IdleTimeout: time.Duration(data[1]%16+1) * time.Second, HashKey: 7}
	monotone := data[0]&8 != 0
	tab, ref := New(cfg), newRef(cfg)
	base := time.Unix(1_280_000_000, 0).UTC()
	clock := int64(1000)
	ops := data[2:]
	for i := 0; i+4 <= len(ops) && i < 4<<20; i += 4 {
		kind, ft, step := ops[i], opTuple(ops[i+1], ops[i+2]), ops[i+3]
		if monotone || step < 224 {
			clock += int64(step % 8)
		} else {
			clock -= int64(step % 16)
		}
		now := base.Add(time.Duration(clock) * time.Second)
		if cfg.MaxEntries > 0 {
			now = now.Add(time.Duration(i / 4))
		}
		switch {
		case kind < 160:
			packets, bytes := 1+int(kind%3), 40*int(kind)
			got, gotNew := tab.Update(ft, now, packets, bytes)
			want, wantNew := ref.Update(ft, now, packets, bytes)
			if gotNew != wantNew || !sameRecord(got, want) {
				t.Fatalf("op %d: Update(%v, %v) = %+v, %v; reference %+v, %v", i/4, ft, now, *got, gotNew, want.Conn, wantNew)
			}
			// The caller owns Slot: set it on both so a record that
			// survives must carry it, and a recycled one must not.
			got.Slot, want.Slot = int32(kind)+1, int32(kind)+1
		case kind < 224:
			got, gotOK := tab.Lookup(ft)
			want, wantOK := ref.Lookup(ft)
			if gotOK != wantOK || (gotOK && !sameRecord(got, want)) {
				t.Fatalf("op %d: Lookup(%v) found %v, reference %v", i/4, ft, gotOK, wantOK)
			}
		default:
			if got, want := tab.Expire(now), ref.Expire(now); got != want {
				t.Fatalf("op %d: Expire(%v) = %d, reference %d", i/4, now, got, want)
			}
		}
		if tab.Len() != ref.Len() || tab.Stats() != ref.stats {
			t.Fatalf("op %d: len %d stats %+v; reference len %d stats %+v", i/4, tab.Len(), tab.Stats(), ref.Len(), ref.stats)
		}
	}
	for key, want := range ref.conns {
		if got, ok := tab.Lookup(key); !ok || !sameRecord(got, want) {
			t.Fatalf("final table lost or changed %v", key)
		}
	}
	checkIdleList(t, tab)
}

// checkIdleList holds the table's own invariants: the idle list links every
// live record once, in LastSeen order, and the index finds each of them.
func checkIdleList(t *testing.T, tab *Table) {
	n, prev := 0, int32(none)
	for r := tab.head; r != none; r = tab.node(r).next {
		nd := *tab.node(r)
		if nd.prev != prev || (prev != none && tab.node(prev).seen > nd.seen) {
			t.Fatalf("idle list broken at record %d", r)
		}
		if nd.seen != tab.rec(r).LastSeen.UnixNano() {
			t.Fatalf("record %d: clock %d, LastSeen %v", r, nd.seen, tab.rec(r).LastSeen)
		}
		if _, at := tab.find(nd.key); at != r {
			t.Fatalf("index does not find record %d", r)
		}
		prev = r
		n++
	}
	if prev != tab.tail || n != tab.Len() {
		t.Fatalf("idle list holds %d records ending at %d; table has %d ending at %d", n, prev, tab.Len(), tab.tail)
	}
}

// randomOps builds a seeded op stream for checkOps.
func randomOps(rng *rand.Rand, cfg byte, n int) []byte {
	data := make([]byte, 2+4*n)
	rng.Read(data)
	data[0] = cfg
	return data
}

// TestTableMatchesReference: seeded random Update/Lookup/Expire sequences —
// monotone and out-of-order clocks, unbounded and under every entry budget
// from 1 to 7 — leave the flat table and the map+heap reference with
// identical return values, records, Len and Stats after every op.
func TestTableMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for cfg := 0; cfg < 16; cfg++ {
		for rep := 0; rep < 8; rep++ {
			checkOps(t, randomOps(rng, byte(cfg), 3000))
		}
	}
}

// FuzzConntrack: fuzzed op streams (checkOps's encoding) against the
// reference.
func FuzzConntrack(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	f.Add(randomOps(rng, 0, 200))
	f.Add(randomOps(rng, 8, 200))
	f.Add(randomOps(rng, 3, 200))
	f.Add(randomOps(rng, 9, 200))
	f.Fuzz(checkOps)
}

// probeCost is the number of index probes that finding every live record
// takes.
func probeCost(tab *Table) int {
	mask, cost := len(tab.index)-1, 0
	for pos, e := range tab.index {
		if e != 0 {
			cost += (pos-tab.home(tab.node(e-1).key))&mask + 1
		}
	}
	return cost
}

// insertCost fills a fresh table with the tuples and returns the best of
// five wall times and the probe cost of the filled table.
func insertCost(tuples []hashing.FiveTuple) (time.Duration, int) {
	var best time.Duration
	var cost int
	now := time.Unix(1_280_000_000, 0)
	for rep := 0; rep < 5; rep++ {
		tab := New(Config{})
		start := time.Now()
		for _, ft := range tuples {
			tab.Update(ft, now, 1, 60)
		}
		if d := time.Since(start); rep == 0 || d < best {
			best = d
		}
		cost = probeCost(tab)
	}
	return best, cost
}

// Tuples an attacker crafts to collide in the index under a zero key — both
// addresses zero zero the hash's first factor, so every one of them hashes
// to 0 — cost no more than random tuples to insert, because each table
// keys its index with a secret of its own.
func TestCraftedCollisionsCostNoMore(t *testing.T) {
	const n = 1 << 15
	crafted := make([]hashing.FiveTuple, n)
	random := make([]hashing.FiveTuple, n)
	rng := rand.New(rand.NewSource(3))
	for i := range crafted {
		crafted[i] = hashing.FiveTuple{SrcPort: uint16(i), DstPort: 0xffff, Proto: 6}
		if mix(keyOf(&crafted[i]), [3]uint64{}) != 0 {
			t.Fatalf("tuple %v is not a zero-key collision", crafted[i])
		}
		random[i] = hashing.FiveTuple{SrcIP: rng.Uint32(), DstIP: rng.Uint32(),
			SrcPort: uint16(rng.Uint32()), DstPort: uint16(rng.Uint32()), Proto: 6}
	}

	// The crafted set is hostile: under a zero secret the first 1024 of
	// them already form one probe run of quadratic cost.
	zero := New(Config{})
	zero.secret = [3]uint64{}
	for _, ft := range crafted[:1024] {
		zero.Update(ft, time.Unix(0, 0), 1, 60)
	}
	if c := probeCost(zero); c != 1024*1025/2 {
		t.Fatalf("zero-key probe cost %d, want the full run %d", c, 1024*1025/2)
	}

	craftedTime, craftedCost := insertCost(crafted)
	randomTime, randomCost := insertCost(random)
	t.Logf("crafted: %v, %d probes; random: %v, %d probes", craftedTime, craftedCost, randomTime, randomCost)
	if craftedCost > 2*randomCost {
		t.Fatalf("crafted tuples take %d probes to find, random %d: more than 2×", craftedCost, randomCost)
	}
	if craftedTime > 2*randomTime {
		t.Fatalf("inserting crafted tuples took %v, random %v: more than 2×", craftedTime, randomTime)
	}
}
