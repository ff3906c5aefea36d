// Package conntrack implements the connection table underlying a NIDS
// node's data path: Bro "maintains a connection record for each end-to-end
// session", and the paper's prototype extends that record with the
// precomputed hash combinations the coordination checks use. The table
// canonicalizes both directions of a session to one record, expires idle
// connections, evicts the oldest records under a hard entry budget (the
// memory cap the placement LP provisions for), and tracks the peak
// occupancy that corresponds to the paper's maximum-resident-memory
// metric.
//
// The table is flat: records live in fixed-size chunks (a record never
// moves), an open-addressed index of record numbers finds them, and an
// intrusive doubly-linked idle list keeps them in LastSeen order. A packet
// of a known connection costs one short probe, an O(1) move to the list's
// tail, and nothing allocated.
package conntrack

import (
	"math/bits"
	"math/rand/v2"
	"time"

	"nwdeploy/internal/hashing"
)

// Conn is one tracked connection record.
type Conn struct {
	// Tuple is the canonical (direction-independent) 5-tuple.
	Tuple hashing.FiveTuple
	// FirstSeen and LastSeen bound the connection's observed lifetime.
	FirstSeen, LastSeen time.Time
	// Packets and Bytes accumulate over both directions.
	Packets, Bytes int
	// SessionHash, FlowHash, SourceHash, DestHash are the precomputed hash
	// fields the prototype carries in the record so policy scripts need
	// not recompute them.
	SessionHash, FlowHash, SourceHash, DestHash float64
	// Slot belongs to the caller: the table zeroes it when the record is
	// created or recycled and never reads it. The assembler in
	// internal/packet keeps its per-flow reassembly state there (index+1
	// into its slot pool; zero means none), so one Update is the only flow
	// lookup a frame pays for.
	Slot int32
}

// chunk holds chunkSize records and their nodes.
type chunk struct {
	nodes [chunkSize]node
	recs  [chunkSize]Conn
}

// node is a record's entry in the table's dense bookkeeping: its packed
// key, its LastSeen on the nanosecond clock, and its idle-list links by
// record number (none = -1). Nodes live apart from the records, so a probe
// and an idle-list move touch dense 32-byte entries, not whole records.
type node struct {
	key        key
	seen       int64
	prev, next int32
}

// Config tunes a Table.
type Config struct {
	// IdleTimeout expires records not updated for this long. Zero selects
	// 5 minutes (Bro's inactivity default for established TCP is of this
	// order).
	IdleTimeout time.Duration
	// MaxEntries bounds the table; the oldest records are evicted beyond
	// it. Zero means unbounded.
	MaxEntries int
	// HashKey seeds the record's hash fields.
	HashKey uint32
}

// recordBytes is the accounting size per record: the prototype's 400-byte
// record plus 24 bytes of hash fields.
const recordBytes = 424

// Records are allocated chunkSize at a time, with their nodes; record
// number n lives at index n&chunkMask of chunks[n>>chunkShift].
const (
	chunkShift = 8
	chunkSize  = 1 << chunkShift
	chunkMask  = chunkSize - 1
)

// none is the idle list's nil link.
const none = -1

// Stats is a table's lifetime accounting.
type Stats struct {
	Created     uint64
	Updated     uint64
	Expired     uint64
	Evicted     uint64
	PeakEntries int
	PeakBytes   int
}

// Table is a connection table. Not safe for concurrent use: a node's data
// path owns its table (parallelize by sharding on FlowHash, as gopacket's
// FastHash-based load balancing does).
//
// Its clock is int64 nanoseconds (time.Time.UnixNano), so timestamps must
// lie between the years 1678 and 2262; capture timestamps always do.
type Table struct {
	cfg    Config
	idle   int64 // IdleTimeout in nanoseconds
	hasher hashing.Hasher

	// chunks hold the records and their nodes; used counts the record
	// numbers ever handed out. free recycles removed records: a table at
	// steady churn (expiry or eviction balancing creation) allocates
	// nothing per connection. The list never outgrows the table's own
	// peak, so it adds no footprint beyond what the table already reached.
	chunks []*chunk
	used   int32
	free   []int32

	// index is open-addressed with linear probing: record number + 1, zero
	// for empty. It is kept at most 3/4 full, and removal shifts the
	// probe run back rather than leaving tombstones. secret keys its hash;
	// it is drawn per table and never derived from Config.HashKey, which
	// manifests and the ledger carry. No output depends on the index
	// layout, so the random secret costs no determinism.
	index  []int32
	shift  uint // 64 - log2(len(index)): the hash's top bits pick the home
	secret [3]uint64
	live   int

	// head and tail are the ends of the idle list, which stays in
	// LastSeen order (oldest first): expiry and eviction pop the head.
	head, tail int32

	stats Stats
}

// New creates an empty table.
func New(cfg Config) *Table {
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = 5 * time.Minute
	}
	return &Table{
		cfg:    cfg,
		idle:   int64(cfg.IdleTimeout),
		hasher: hashing.Hasher{Key: cfg.HashKey},
		index:  make([]int32, 16),
		shift:  64 - 4,
		secret: [3]uint64{rand.Uint64(), rand.Uint64(), rand.Uint64()},
		head:   none,
		tail:   none,
	}
}

// key is a canonical (direction-independent) tuple packed into two words.
type key struct{ addrs, rest uint64 }

// keyOf canonicalizes a tuple — the lower address (then port) first — so
// both directions map to one record, and packs it. It reads the tuple
// through a pointer: a by-value copy of the five-field struct is one wide
// load over narrow stores, which stalls store forwarding on every frame.
func keyOf(ft *hashing.FiveTuple) key {
	a, b, pa, pb := ft.SrcIP, ft.DstIP, ft.SrcPort, ft.DstPort
	if a > b || (a == b && pa > pb) {
		a, b, pa, pb = b, a, pb, pa
	}
	return key{uint64(a)<<32 | uint64(b), uint64(pa)<<24 | uint64(pb)<<8 | uint64(ft.Proto)}
}

// tuple unpacks k.
func (k key) tuple() hashing.FiveTuple {
	return hashing.FiveTuple{
		SrcIP: uint32(k.addrs >> 32), DstIP: uint32(k.addrs),
		SrcPort: uint16(k.rest >> 24), DstPort: uint16(k.rest >> 8), Proto: uint8(k.rest),
	}
}

// mix is the index hash: a multiply-fold of the key words under a secret,
// folded once more through a fixed odd multiplier so that structure left in
// either half of the first product (one key word held constant makes it a
// plain multiple of the other) reaches the top bits mixed.
func mix(k key, secret [3]uint64) uint64 {
	hi, lo := bits.Mul64(k.addrs^secret[0], k.rest^secret[1])
	hi, lo = bits.Mul64(hi^lo^secret[2], 0x9e3779b97f4a7c15)
	return hi ^ lo
}

func (t *Table) rec(n int32) *Conn  { return &t.chunks[n>>chunkShift].recs[n&chunkMask] }
func (t *Table) node(n int32) *node { return &t.chunks[n>>chunkShift].nodes[n&chunkMask] }

func (t *Table) home(k key) int { return int(mix(k, t.secret) >> t.shift) }

// find returns the index position holding key k and its record number, or
// the empty position that ends k's probe run and -1.
func (t *Table) find(k key) (int, int32) {
	mask := len(t.index) - 1
	for pos := t.home(k); ; pos = (pos + 1) & mask {
		e := t.index[pos]
		if e == 0 {
			return pos, none
		}
		if t.node(e-1).key == k {
			return pos, e - 1
		}
	}
}

// Update records a packet (or packet burst) for the tuple at time now,
// creating the record if needed. It returns the record and whether it was
// created by this call. Expiry of due records happens lazily here.
func (t *Table) Update(ft hashing.FiveTuple, now time.Time, packets, bytes int) (*Conn, bool) {
	ns := now.UnixNano()
	t.expireBefore(ns - t.idle)

	k := keyOf(&ft)
	pos, n := t.find(k)
	if n != none {
		t.touch(n, ns)
		c := t.rec(n)
		c.LastSeen = now
		c.Packets += packets
		c.Bytes += bytes
		t.stats.Updated++
		return c, false
	}

	if 4*(t.live+1) > 3*len(t.index) {
		t.grow()
		pos, _ = t.find(k)
	}
	n = t.alloc()
	c := t.rec(n)
	*c = Conn{
		Tuple:     k.tuple(),
		FirstSeen: now, LastSeen: now,
		Packets: packets, Bytes: bytes,
		SessionHash: t.hasher.Session(ft),
		FlowHash:    t.hasher.Flow(ft),
		SourceHash:  t.hasher.Source(ft),
		DestHash:    t.hasher.Destination(ft),
	}
	*t.node(n) = node{key: k, seen: ns}
	t.index[pos] = n + 1
	t.live++
	t.place(n, t.tail)
	t.stats.Created++

	if t.cfg.MaxEntries > 0 {
		for t.live > t.cfg.MaxEntries {
			t.remove(t.head)
			t.stats.Evicted++
		}
	}
	if t.live > t.stats.PeakEntries {
		t.stats.PeakEntries = t.live
		t.stats.PeakBytes = t.live * recordBytes
	}
	return c, true
}

// Lookup returns the record for the tuple (either direction) without
// refreshing it.
func (t *Table) Lookup(ft hashing.FiveTuple) (*Conn, bool) {
	if _, n := t.find(keyOf(&ft)); n != none {
		return t.rec(n), true
	}
	return nil, false
}

// expireBefore removes every record last seen at or before cutoff.
func (t *Table) expireBefore(cutoff int64) {
	for t.head != none && t.node(t.head).seen <= cutoff {
		t.remove(t.head)
		t.stats.Expired++
	}
}

// alloc takes a record number off the freelist, or the next unused one.
func (t *Table) alloc() int32 {
	if n := len(t.free); n > 0 {
		r := t.free[n-1]
		t.free = t.free[:n-1]
		return r
	}
	if int(t.used)>>chunkShift == len(t.chunks) {
		t.chunks = append(t.chunks, new(chunk))
	}
	t.used++
	return t.used - 1
}

// remove drops record n from the index and the idle list. The record goes
// back on the freelist and may be reused by the next creation: callers
// must not retain *Conn pointers past the table operation that could
// expire or evict them (the data path in internal/packet reads the record
// synchronously and drops it).
func (t *Table) remove(n int32) {
	t.unlink(n)
	mask := len(t.index) - 1
	pos := t.home(t.node(n).key)
	for t.index[pos] != n+1 {
		pos = (pos + 1) & mask
	}
	// Backward-shift deletion: walk the probe run after the hole and move
	// back every entry whose home does not lie between the hole and it.
	for j := (pos + 1) & mask; ; j = (j + 1) & mask {
		e := t.index[j]
		if e == 0 {
			break
		}
		if h := t.home(t.node(e - 1).key); (j-h)&mask >= (j-pos)&mask {
			t.index[pos] = e
			pos = j
		}
	}
	t.index[pos] = 0
	t.live--
	t.free = append(t.free, n)
}

// grow doubles the index and reinserts every live record number.
func (t *Table) grow() {
	old := t.index
	t.index = make([]int32, 2*len(old))
	t.shift--
	mask := len(t.index) - 1
	for _, e := range old {
		if e == 0 {
			continue
		}
		pos := t.home(t.node(e - 1).key)
		for t.index[pos] != 0 {
			pos = (pos + 1) & mask
		}
		t.index[pos] = e
	}
}

// touch moves record n, just seen at ns, to its place in the idle list:
// the tail when time runs forward, found by a backward walk when a frame
// arrives out of order.
func (t *Table) touch(n int32, ns int64) {
	nd := t.node(n)
	from := t.tail
	if ns < nd.seen {
		from = nd.prev // every record after n was seen later than ns
	} else if nd.next == none {
		nd.seen = ns // already the tail
		return
	}
	t.unlink(n)
	nd.seen = ns
	t.place(n, from)
}

// unlink takes record n out of the idle list.
func (t *Table) unlink(n int32) {
	nd := t.node(n)
	if nd.prev != none {
		t.node(nd.prev).next = nd.next
	} else {
		t.head = nd.next
	}
	if nd.next != none {
		t.node(nd.next).prev = nd.prev
	} else {
		t.tail = nd.prev
	}
}

// place links the unlinked record n after the last record, at or before
// from, that was seen no later than it, keeping the list in LastSeen
// order; ties keep arrival order.
func (t *Table) place(n, from int32) {
	nd := t.node(n)
	p := from
	for p != none && t.node(p).seen > nd.seen {
		p = t.node(p).prev
	}
	nd.prev = p
	if p != none {
		nd.next = t.node(p).next
		t.node(p).next = n
	} else {
		nd.next = t.head
		t.head = n
	}
	if nd.next != none {
		t.node(nd.next).prev = n
	} else {
		t.tail = n
	}
}

// Len reports the live record count.
func (t *Table) Len() int { return t.live }

// Stats returns a copy of the lifetime counters.
func (t *Table) Stats() Stats { return t.stats }
