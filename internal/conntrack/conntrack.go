// Package conntrack implements the connection table underlying a NIDS
// node's data path: Bro "maintains a connection record for each end-to-end
// session", and the paper's prototype extends that record with the
// precomputed hash combinations the coordination checks use. The table
// canonicalizes both directions of a session to one record, expires idle
// connections, evicts the oldest records under a hard entry budget (the
// memory cap the placement LP provisions for), and tracks the peak
// occupancy that corresponds to the paper's maximum-resident-memory
// metric.
package conntrack

import (
	"container/heap"
	"time"

	"nwdeploy/internal/hashing"
	"nwdeploy/internal/obs"
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

	heapIdx int
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
	// RecordBytes is the accounting size per record; zero selects 424
	// (the prototype's 400-byte record plus 24 bytes of hash fields).
	RecordBytes int
	// Metrics, when non-nil, receives table observability: created,
	// expired, and evicted record counts plus a peak-occupancy gauge.
	// The registry is write-only; table behavior is identical without it
	// (nil is the no-op default; see internal/obs).
	Metrics *obs.Registry
}

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
type Table struct {
	cfg    Config
	hasher hashing.Hasher

	conns map[hashing.FiveTuple]*Conn
	byAge connHeap // min-heap on LastSeen
	// free recycles removed records: a table at steady churn (expiry or
	// eviction balancing creation) allocates nothing per connection — the
	// map reuses its buckets, the heap its backing array, and records come
	// off this list. The list never outgrows the table's own peak, so it
	// adds no footprint beyond what the table already reached.
	free []*Conn

	stats Stats

	// Metric handles resolved once at construction; all are nil-safe
	// no-ops when Config.Metrics is nil.
	createdC, expiredC, evictedC *obs.Counter
	peakG                        *obs.Gauge
}

// New creates an empty table.
func New(cfg Config) *Table {
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = 5 * time.Minute
	}
	if cfg.RecordBytes == 0 {
		cfg.RecordBytes = 424
	}
	return &Table{
		cfg:      cfg,
		hasher:   hashing.Hasher{Key: cfg.HashKey},
		conns:    make(map[hashing.FiveTuple]*Conn),
		createdC: cfg.Metrics.Counter("conntrack.created"),
		expiredC: cfg.Metrics.Counter("conntrack.expired"),
		evictedC: cfg.Metrics.Counter("conntrack.evicted"),
		peakG:    cfg.Metrics.Gauge("conntrack.peak_entries"),
	}
}

// canonical orders a tuple so both directions map to one record.
func canonical(ft hashing.FiveTuple) hashing.FiveTuple {
	if ft.SrcIP > ft.DstIP || (ft.SrcIP == ft.DstIP && ft.SrcPort > ft.DstPort) {
		return ft.Reverse()
	}
	return ft
}

// Update records a packet (or packet burst) for the tuple at time now,
// creating the record if needed. It returns the record and whether it was
// created by this call. Expiry of due records happens lazily here.
func (t *Table) Update(ft hashing.FiveTuple, now time.Time, packets, bytes int) (*Conn, bool) {
	t.expireBefore(now.Add(-t.cfg.IdleTimeout))

	key := canonical(ft)
	if c, ok := t.conns[key]; ok {
		c.LastSeen = now
		c.Packets += packets
		c.Bytes += bytes
		heap.Fix(&t.byAge, c.heapIdx)
		t.stats.Updated++
		return c, false
	}

	var c *Conn
	if n := len(t.free); n > 0 {
		c = t.free[n-1]
		t.free[n-1] = nil
		t.free = t.free[:n-1]
	} else {
		c = new(Conn)
	}
	*c = Conn{
		Tuple:     key,
		FirstSeen: now, LastSeen: now,
		Packets: packets, Bytes: bytes,
		SessionHash: t.hasher.Session(ft),
		FlowHash:    t.hasher.Flow(ft),
		SourceHash:  t.hasher.Source(ft),
		DestHash:    t.hasher.Destination(ft),
	}
	t.conns[key] = c
	heap.Push(&t.byAge, c)
	t.stats.Created++
	t.createdC.Add(1)

	if t.cfg.MaxEntries > 0 {
		for len(t.conns) > t.cfg.MaxEntries {
			old := t.byAge.peek()
			t.remove(old)
			t.stats.Evicted++
			t.evictedC.Add(1)
		}
	}
	if n := len(t.conns); n > t.stats.PeakEntries {
		t.stats.PeakEntries = n
		t.stats.PeakBytes = n * t.cfg.RecordBytes
		t.peakG.Max(float64(n))
	}
	return c, true
}

// Lookup returns the record for the tuple (either direction) without
// refreshing it.
func (t *Table) Lookup(ft hashing.FiveTuple) (*Conn, bool) {
	c, ok := t.conns[canonical(ft)]
	return c, ok
}

func (t *Table) expireBefore(cutoff time.Time) {
	for t.byAge.Len() > 0 {
		oldest := t.byAge.peek()
		if oldest.LastSeen.After(cutoff) {
			return
		}
		t.remove(oldest)
		t.stats.Expired++
		t.expiredC.Add(1)
	}
}

func (t *Table) remove(c *Conn) {
	heap.Remove(&t.byAge, c.heapIdx)
	delete(t.conns, c.Tuple)
	// The record goes back on the freelist and may be reused by the next
	// creation: callers must not retain *Conn pointers past the table
	// operation that could expire or evict them (the data path in
	// internal/packet reads the record synchronously and drops it).
	t.free = append(t.free, c)
}

// Len reports the live record count.
func (t *Table) Len() int { return len(t.conns) }

// Stats returns a copy of the lifetime counters.
func (t *Table) Stats() Stats { return t.stats }

// connHeap is a min-heap of records ordered by LastSeen.
type connHeap []*Conn

func (h connHeap) Len() int            { return len(h) }
func (h connHeap) Less(i, j int) bool  { return h[i].LastSeen.Before(h[j].LastSeen) }
func (h connHeap) peek() *Conn         { return h[0] }
func (h *connHeap) Push(x interface{}) { c := x.(*Conn); c.heapIdx = len(*h); *h = append(*h, c) }
func (h connHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx = i
	h[j].heapIdx = j
}
func (h *connHeap) Pop() interface{} {
	old := *h
	n := len(old)
	c := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return c
}
