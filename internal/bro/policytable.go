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
// counters (key → count), values (key → dense id, plus cardinality if it
// keys a set) and pairs (a word per (set, member) pair: the set's id above
// bit 33, and below it the member itself if it is an integer in [0, 2³²) —
// as every address a script pushes is — else memberIDFlag and its id in
// values). Keys are the float64's bit pattern with −0 folded onto +0, so
// every value a script can push takes the same path. Ids count values'
// int32 entries, so a set id fits the word's top 31 bits.
//
// A NaN never equals itself, so a map keyed by float64 turns every insert
// with a NaN key or member into a fresh entry no later lookup finds. Those
// entries are counted here, never stored: OpAddSet under a NaN key yields 1,
// a NaN member always grows its set, and OpIncr on a NaN key yields 0 (the
// increment lands on an entry the read-back misses).
type moduleTables struct {
	counters, values flatTable
	pairs            pairSet
	// entries is what a map of maps would hold — counters plus Σ(|set|+1),
	// NaN inserts included — so memBytes, and every report built on it, is
	// the same as it was under Go maps.
	entries int
}

// A value slot's b is its id plus its cardinality times cardOne.
const memberIDFlag, cardOne, idMask = 1 << 32, 1 << 32, 1<<32 - 1

// addSet inserts member into key's set and returns the set's cardinality.
func (mt *moduleTables) addSet(key, member float64) float64 {
	if key != key {
		mt.entries += 2 // a fresh set holding member alone
		return 1
	}
	var word uint64 // the member's part of the pair word
	if member >= 0 && member < 1<<32 && float64(uint64(member)) == member {
		word = uint64(member)
	} else if member == member {
		id, _ := mt.values.find(tableKey(member), uint64(mt.values.used)) // first: it may grow values
		word = memberIDFlag | id.b&idMask
	}
	set, _ := mt.values.find(tableKey(key), uint64(mt.values.used)) // a new key gets the next id
	if set.b < cardOne {
		mt.entries++ // no members yet: a new set
	}
	if member == member && !mt.pairs.insert(set.b&idMask<<33|word) {
		return float64(set.b >> 32)
	}
	set.b += cardOne
	mt.entries++
	return float64(set.b >> 32)
}

// incr adds one to key's counter and returns the counter's new value.
func (mt *moduleTables) incr(key float64) float64 {
	if key != key {
		mt.entries++
		return 0
	}
	c, fresh := mt.counters.find(tableKey(key), 0)
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

// slot is one table cell: a is the encoded key, b its count or value.
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
)

// wordHash hashes a key word; its top bits are the well-mixed ones.
func wordHash(a uint64) uint64 { return (a ^ a>>32) * hashMul }

// find returns the slot holding key a, or claims an empty one for it, set
// to (a, b), growing the table first when the claim would pass ¾ load;
// fresh reports a claim. A present key never grows the table, so
// re-inserting one never allocates.
func (t *flatTable) find(a, b uint64) (s *slot, fresh bool) {
	for {
		if n := len(t.slots); n > 0 {
			for i := int(wordHash(a) >> t.shift); ; i = (i + 1) & (n - 1) {
				s = &t.slots[i]
				if s.a == a {
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
		t.grow()
	}
}

// grow doubles the table (or allocates its first array) and reinserts every
// occupied slot.
func (t *flatTable) grow() {
	old := t.slots
	t.slots = make([]slot, max(2*len(old), minTableSlots))
	t.shift = uint8(64 - bits.TrailingZeros(uint(len(t.slots))))
	t.used = 0
	for _, s := range old {
		if s.a != 0 {
			t.find(s.a, s.b)
		}
	}
}

// pairSet is a set of words probed in groups of eight, as in Go's swiss
// map. A group's control word has a byte per slot: 0 while it is empty,
// else 0x80 and seven bits of its word's hash. One SWAR compare finds the
// slots a probe must check, and with no deletions a group with room ends
// the probe of an absent word — for scan's pairs, ~98 % of them new, mostly
// the first group. Control words sit apart from the slots, so such a probe
// reads an eighth of the set's memory.
type pairSet struct {
	tab     []uint64 // n control words, then the slots: group g's slot i is tab[n+8g+i]
	n, used int      // groups (a power of two); words held
	shift   uint8    // 64 − log2(n)
}

const ctrlLow, ctrlHigh = 0x0101010101010101, 0x8080808080808080

// insert adds w and reports whether it was absent, growing the set first
// when the new word would pass ⅞ load. A present word never grows it.
func (p *pairSet) insert(w uint64) bool {
	h := wordHash(w)
	for {
		tag := ctrlHigh>>56 | h>>(p.shift-7)&0x7f // seven bits below those picking a group
		for g := int(h >> p.shift); p.n > 0; g = (g + 1) & (p.n - 1) {
			ctrl := p.tab[g]
			// Bytes equal to tag are zero in x. The zero test flags them,
			// and maybe an occupied byte above one: the compare rejects it.
			x := ctrl ^ ctrlLow*tag
			for m := (x - ctrlLow) &^ x & ctrlHigh; m != 0; m &= m - 1 {
				if p.tab[p.n+8*g+bits.TrailingZeros64(m)>>3] == w {
					return false
				}
			}
			if free := ^ctrl & ctrlHigh; free != 0 { // room: w is absent
				if p.used+1 > 7*p.n {
					break
				}
				i := bits.TrailingZeros64(free) >> 3
				p.tab[g] = ctrl | tag<<(8*i)
				p.tab[p.n+8*g+i] = w
				p.used++
				return true
			}
		}
		p.grow()
	}
}

// grow quadruples the set (or allocates its first two groups) and
// reinserts every word. A stream of mostly new pairs grows the set all run
// long; quadrupling moves each word a third of a time, not once, on average.
func (p *pairSet) grow() {
	old, m := p.tab, p.n
	p.n = max(4*m, minTableSlots/8)
	p.tab = make([]uint64, 9*p.n)
	p.shift = uint8(64 - bits.TrailingZeros(uint(p.n)))
	p.used = 0
	for g, ctrl := range old[:m] {
		for full := ctrl & ctrlHigh; full != 0; full &= full - 1 {
			p.insert(old[m+8*g+bits.TrailingZeros64(full)>>3])
		}
	}
}
