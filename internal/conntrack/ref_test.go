package conntrack

import (
	"container/heap"
	"time"

	"nwdeploy/internal/hashing"
)

// This file keeps the table the flat index and idle list replaced — a Go
// map keyed by the canonical tuple, a container/heap min-heap on LastSeen,
// and a freelist of heap-allocated records — as the test-only oracle the
// flat table is checked against (TestTableMatchesReference,
// FuzzConntrack). Do not optimise it: its value is being obviously right.

// canonical orders a tuple so both directions map to one record.
func canonical(ft hashing.FiveTuple) hashing.FiveTuple {
	if ft.SrcIP > ft.DstIP || (ft.SrcIP == ft.DstIP && ft.SrcPort > ft.DstPort) {
		return ft.Reverse()
	}
	return ft
}

type refConn struct {
	Conn
	heapIdx int
}

type refTable struct {
	cfg    Config
	hasher hashing.Hasher
	conns  map[hashing.FiveTuple]*refConn
	byAge  refHeap
	free   []*refConn
	stats  Stats
}

func newRef(cfg Config) *refTable {
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = 5 * time.Minute
	}
	return &refTable{
		cfg:    cfg,
		hasher: hashing.Hasher{Key: cfg.HashKey},
		conns:  make(map[hashing.FiveTuple]*refConn),
	}
}

func (t *refTable) Update(ft hashing.FiveTuple, now time.Time, packets, bytes int) (*refConn, bool) {
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

	var c *refConn
	if n := len(t.free); n > 0 {
		c = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		c = new(refConn)
	}
	*c = refConn{Conn: Conn{
		Tuple:     key,
		FirstSeen: now, LastSeen: now,
		Packets: packets, Bytes: bytes,
		SessionHash: t.hasher.Session(ft),
		FlowHash:    t.hasher.Flow(ft),
		SourceHash:  t.hasher.Source(ft),
		DestHash:    t.hasher.Destination(ft),
	}}
	t.conns[key] = c
	heap.Push(&t.byAge, c)
	t.stats.Created++

	if t.cfg.MaxEntries > 0 {
		for len(t.conns) > t.cfg.MaxEntries {
			t.remove(t.byAge[0])
			t.stats.Evicted++
		}
	}
	if n := len(t.conns); n > t.stats.PeakEntries {
		t.stats.PeakEntries = n
		t.stats.PeakBytes = n * recordBytes
	}
	return c, true
}

func (t *refTable) Lookup(ft hashing.FiveTuple) (*refConn, bool) {
	c, ok := t.conns[canonical(ft)]
	return c, ok
}

func (t *refTable) Expire(now time.Time) int {
	before := t.stats.Expired
	t.expireBefore(now.Add(-t.cfg.IdleTimeout))
	return int(t.stats.Expired - before)
}

func (t *refTable) expireBefore(cutoff time.Time) {
	for len(t.byAge) > 0 {
		oldest := t.byAge[0]
		if oldest.LastSeen.After(cutoff) {
			return
		}
		t.remove(oldest)
		t.stats.Expired++
	}
}

func (t *refTable) remove(c *refConn) {
	heap.Remove(&t.byAge, c.heapIdx)
	delete(t.conns, c.Tuple)
	t.free = append(t.free, c)
}

func (t *refTable) Len() int { return len(t.conns) }

// refHeap is a min-heap of records ordered by LastSeen.
type refHeap []*refConn

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return h[i].LastSeen.Before(h[j].LastSeen) }
func (h *refHeap) Push(x interface{}) { c := x.(*refConn); c.heapIdx = len(*h); *h = append(*h, c) }
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx = i
	h[j].heapIdx = j
}
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	c := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return c
}
