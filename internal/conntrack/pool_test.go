package conntrack

import (
	"testing"
	"time"

	"nwdeploy/internal/hashing"
)

func churnTuple(i int) hashing.FiveTuple {
	return hashing.FiveTuple{
		SrcIP: 0x0a000000 | uint32(i), DstIP: 0xc0a80001,
		SrcPort: uint16(1024 + i%40000), DstPort: 443, Proto: 6,
	}
}

// A table at steady eviction churn — every creation balanced by an
// eviction — must not allocate per connection: records recycle through the
// freelist, the map reuses buckets, the heap its array.
func TestUpdateEvictionChurnAllocFree(t *testing.T) {
	tbl := New(Config{MaxEntries: 256, HashKey: 7})
	now := time.Unix(1e9, 0)
	for i := 0; i < 1024; i++ { // warm to steady state
		tbl.Update(churnTuple(i), now, 1, 500)
	}
	i := 1024
	if n := testing.AllocsPerRun(5000, func() {
		tbl.Update(churnTuple(i), now, 1, 500)
		i++
	}); n != 0 {
		t.Fatalf("eviction churn allocates %v per connection, want 0", n)
	}
	if tbl.Len() != 256 {
		t.Fatalf("table size %d, want MaxEntries 256", tbl.Len())
	}
}

// Expiry churn likewise: a burst of connections that all expire before the
// next burst must reuse the expired records.
func TestUpdateExpiryChurnAllocFree(t *testing.T) {
	tbl := New(Config{IdleTimeout: time.Second, HashKey: 7})
	now := time.Unix(1e9, 0)
	burst := func(start int) {
		for i := 0; i < 128; i++ {
			tbl.Update(churnTuple(start+i), now, 1, 500)
		}
	}
	burst(0) // warm up
	now = now.Add(2 * time.Second)
	start := 128
	if n := testing.AllocsPerRun(50, func() {
		burst(start)
		start += 128
		now = now.Add(2 * time.Second) // next call's lazy expiry clears all
	}); n != 0 {
		t.Fatalf("expiry churn allocates %v per burst, want 0", n)
	}
}

// Updates to existing records never allocate.
func TestUpdateExistingAllocFree(t *testing.T) {
	tbl := New(Config{HashKey: 7})
	now := time.Unix(1e9, 0)
	for i := 0; i < 64; i++ {
		tbl.Update(churnTuple(i), now, 1, 500)
	}
	i := 0
	if n := testing.AllocsPerRun(5000, func() {
		now = now.Add(time.Millisecond)
		tbl.Update(churnTuple(i%64), now, 2, 800)
		i++
	}); n != 0 {
		t.Fatalf("update of existing record allocates %v, want 0", n)
	}
}

// Recycled records must be fully reinitialized: no field of a dead
// connection may leak into its successor.
func TestRecycledRecordsFullyReset(t *testing.T) {
	tbl := New(Config{MaxEntries: 1, HashKey: 7})
	now := time.Unix(1e9, 0)
	c1, created := tbl.Update(churnTuple(1), now, 9, 999)
	if !created {
		t.Fatal("first update should create")
	}
	c1.Slot = 5 // caller-owned; must not follow the record into its next life
	h1 := *c1
	if _, created := tbl.Update(churnTuple(2), now.Add(time.Second), 1, 10); !created {
		t.Fatal("second update should create (evicting the first)")
	}
	// The first record was evicted by the second update, so the third
	// creation must pop it off the freelist.
	c3, created := tbl.Update(churnTuple(3), now.Add(2*time.Second), 1, 10)
	if !created {
		t.Fatal("third update should create")
	}
	if c3 != c1 {
		t.Fatal("third creation did not recycle the evicted record")
	}
	if c3.Packets != 1 || c3.Bytes != 10 || c3.Tuple == h1.Tuple || c3.Slot != 0 ||
		c3.FirstSeen != now.Add(2*time.Second) || c3.LastSeen != now.Add(2*time.Second) {
		t.Fatalf("recycled record leaked state: %+v (previous %+v)", *c3, h1)
	}
}
