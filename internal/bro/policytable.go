package bro

import (
	"math"
	"math/bits"
)

// moduleTables is the persistent per-module policy state: keyed sets (scan
// detection: distinct destinations per source) and counters (SYN-flood
// victim counts). Only modules whose compiled script executes OpAddSet or
// OpIncr get one; the zero value is empty and allocates nothing before its
// first write.
//
// Three flat tables hold it, with no table and no allocation per key:
// counters (key → count), cards (set key → cardinality) and members (one
// slot per (set key, member) pair present). Keys and members are the
// float64's bit pattern with −0 folded onto +0, so every value a script can
// push — addresses, hashes, ±Inf, subnormals — takes the same path.
//
// A NaN never equals itself, so a map keyed by float64 turns every insert
// with a NaN key or member into a fresh entry no later lookup finds. Those
// entries are counted here, never stored: OpAddSet under a NaN key yields 1,
// a NaN member always grows its set, and OpIncr on a NaN key yields 0 (the
// increment lands on an entry the read-back misses).
type moduleTables struct {
	counters, cards, members flatTable
	// entries is what a map of maps would hold — counters plus Σ(|set|+1),
	// NaN inserts included — so memBytes, and every report built on it, is
	// the same as it was under Go maps.
	entries int
}

// addSet inserts member into key's set and returns the set's cardinality.
func (mt *moduleTables) addSet(key, member float64) float64 {
	if key != key {
		mt.entries += 2 // a fresh set holding member alone
		return 1
	}
	k := tableKey(key)
	card, fresh := mt.cards.find(k, 0, false)
	if fresh {
		mt.entries++
	}
	if member == member {
		if _, fresh := mt.members.find(k, tableKey(member), true); !fresh {
			return float64(card.b)
		}
	}
	card.b++
	mt.entries++
	return float64(card.b)
}

// incr adds one to key's counter and returns the counter's new value.
func (mt *moduleTables) incr(key float64) float64 {
	if key != key {
		mt.entries++
		return 0
	}
	c, fresh := mt.counters.find(tableKey(key), 0, false)
	if fresh {
		mt.entries++
	}
	c.b++
	return float64(c.b)
}

// memBytes estimates the resident size of the tables: one set entry or
// counter is charged at tableEntryBytes.
func (mt *moduleTables) memBytes() float64 {
	if mt == nil {
		return 0
	}
	return float64(mt.entries) * tableEntryBytes
}

// nanBits is a NaN's bit pattern. Stored keys are XORed with it, so only
// this NaN would encode to 0 and an all-zero slot can mean "empty".
const nanBits = 0x7FF8000000000001

// tableKey encodes a non-NaN key or member for storage.
func tableKey(v float64) uint64 {
	if v == 0 {
		v = 0 // −0 == +0: one key, as in a Go map
	}
	return math.Float64bits(v) ^ nanBits
}

// slot is one 16-byte table cell. In a value table a is the encoded key and
// b its count; in a pair table (a, b) is the encoded (set key, member).
type slot struct{ a, b uint64 }

// flatTable is an open-addressed hash table: a power-of-two array of slots
// probed linearly from a multiplicative hash, allocated on the first insert
// and doubled at ¾ load.
type flatTable struct {
	slots []slot
	used  int32
	shift uint8 // 64 − log2(len(slots)): the hash's top bits index the array
}

const (
	minTableSlots = 16
	hashMul       = 0x9E3779B97F4A7C15 // 2⁶⁴/φ, odd
	pairMul       = 0xBF58476D1CE4E5B9 // odd; spreads the set key before the member joins it
)

// slotHash hashes a slot's key: a alone in a value table, (a, b) in a pair
// table.
func slotHash(a, b uint64, pair bool) uint64 {
	if pair {
		a = a*pairMul ^ b
	}
	return (a ^ a>>32) * hashMul
}

// find returns the slot holding key (a, b) — a alone when !pair — or claims
// an empty one for it, set to (a, b), growing the table first when the claim
// would pass ¾ load; fresh reports a claim. A present key never grows the
// table, so re-inserting one never allocates.
func (t *flatTable) find(a, b uint64, pair bool) (s *slot, fresh bool) {
	for {
		if n := len(t.slots); n > 0 {
			for i := int(slotHash(a, b, pair) >> t.shift); ; i = (i + 1) & (n - 1) {
				s = &t.slots[i]
				if s.a == a && (!pair || s.b == b) {
					return s, false
				}
				if s.a == 0 {
					break
				}
			}
			if 4*(int(t.used)+1) <= 3*n {
				t.used++
				*s = slot{a, b}
				return s, true
			}
		}
		t.grow(pair)
	}
}

// grow doubles the table (or allocates its first array) and reinserts every
// occupied slot.
func (t *flatTable) grow(pair bool) {
	old := t.slots
	n := 2 * len(old)
	if n == 0 {
		n = minTableSlots
	}
	t.slots = make([]slot, n)
	t.shift = uint8(64 - bits.TrailingZeros(uint(n)))
	for _, s := range old {
		if s.a == 0 {
			continue
		}
		i := int(slotHash(s.a, s.b, pair) >> t.shift)
		for t.slots[i].a != 0 {
			i = (i + 1) & (n - 1)
		}
		t.slots[i] = s
	}
}
