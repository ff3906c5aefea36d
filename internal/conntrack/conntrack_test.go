package conntrack

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"nwdeploy/internal/hashing"
)

var t0 = time.Date(2026, 7, 5, 12, 0, 0, 0, time.UTC)

func tuple(src, dst uint32, sp, dp uint16) hashing.FiveTuple {
	return hashing.FiveTuple{SrcIP: src, DstIP: dst, SrcPort: sp, DstPort: dp, Proto: 6}
}

func TestBothDirectionsShareOneRecord(t *testing.T) {
	tab := New(Config{})
	ft := tuple(1, 2, 1000, 80)
	c1, created := tab.Update(ft, t0, 3, 300)
	if !created {
		t.Fatal("first update must create")
	}
	c2, created := tab.Update(ft.Reverse(), t0.Add(time.Second), 2, 200)
	if created {
		t.Fatal("reverse direction created a second record")
	}
	if c1 != c2 {
		t.Fatal("directions mapped to different records")
	}
	if c1.Packets != 5 || c1.Bytes != 500 {
		t.Fatalf("accumulation wrong: %+v", c1)
	}
	if tab.Len() != 1 {
		t.Fatalf("table has %d records, want 1", tab.Len())
	}
}

func TestRecordCarriesHashes(t *testing.T) {
	tab := New(Config{HashKey: 9})
	h := hashing.Hasher{Key: 9}
	ft := tuple(10, 20, 1234, 443)
	c, _ := tab.Update(ft, t0, 1, 100)
	if c.SessionHash != h.Session(ft) || c.FlowHash != h.Flow(ft) ||
		c.SourceHash != h.Source(ft) || c.DestHash != h.Destination(ft) {
		t.Fatal("precomputed hash fields disagree with the hasher")
	}
	// Session hash must be direction-invariant inside the record too.
	if c.SessionHash != h.Session(ft.Reverse()) {
		t.Fatal("session hash not canonical")
	}
}

func TestIdleExpiry(t *testing.T) {
	tab := New(Config{IdleTimeout: time.Minute})
	tab.Update(tuple(1, 2, 1, 80), t0, 1, 10)
	tab.Update(tuple(3, 4, 2, 80), t0.Add(30*time.Second), 1, 10)
	if n := tab.Expire(t0.Add(61 * time.Second)); n != 1 {
		t.Fatalf("expired %d, want 1 (only the first record is idle)", n)
	}
	if tab.Len() != 1 {
		t.Fatalf("len = %d, want 1", tab.Len())
	}
	if _, ok := tab.Lookup(tuple(1, 2, 1, 80)); ok {
		t.Fatal("idle record still present")
	}
	if _, ok := tab.Lookup(tuple(3, 4, 2, 80)); !ok {
		t.Fatal("fresh record expired")
	}
}

func TestUpdateRefreshesIdleClock(t *testing.T) {
	tab := New(Config{IdleTimeout: time.Minute})
	ft := tuple(1, 2, 1, 80)
	tab.Update(ft, t0, 1, 10)
	// Keep touching it; it must survive well past the original deadline.
	for i := 1; i <= 5; i++ {
		tab.Update(ft, t0.Add(time.Duration(i)*45*time.Second), 1, 10)
	}
	if n := tab.Expire(t0.Add(5*45*time.Second + 59*time.Second)); n != 0 {
		t.Fatalf("refreshed record expired (%d)", n)
	}
}

func TestEvictionUnderEntryBudget(t *testing.T) {
	tab := New(Config{MaxEntries: 10, IdleTimeout: time.Hour})
	for i := 0; i < 50; i++ {
		tab.Update(tuple(uint32(i+1), 1000, uint16(i+1), 80), t0.Add(time.Duration(i)*time.Second), 1, 10)
	}
	if tab.Len() != 10 {
		t.Fatalf("len = %d, want 10", tab.Len())
	}
	st := tab.Stats()
	if st.Evicted != 40 {
		t.Fatalf("evicted = %d, want 40", st.Evicted)
	}
	// Only the newest records survive.
	for i := 40; i < 50; i++ {
		if _, ok := tab.Lookup(tuple(uint32(i+1), 1000, uint16(i+1), 80)); !ok {
			t.Fatalf("recent record %d evicted", i)
		}
	}
}

func TestPeakTracking(t *testing.T) {
	tab := New(Config{IdleTimeout: time.Minute})
	for i := 0; i < 20; i++ {
		tab.Update(tuple(uint32(i+1), 9, 1, 80), t0.Add(time.Duration(i)*time.Second), 1, 10)
	}
	// Everything expires...
	tab.Expire(t0.Add(time.Hour))
	if tab.Len() != 0 {
		t.Fatal("expire left records")
	}
	st := tab.Stats()
	// ...but the peak stands: 20 concurrent records.
	if st.PeakEntries != 20 || st.PeakBytes != 20*424 {
		t.Fatalf("peak = %d entries / %d bytes, want 20 / %d", st.PeakEntries, st.PeakBytes, 20*424)
	}
	if tab.Bytes() != 0 {
		t.Fatalf("live bytes = %d, want 0", tab.Bytes())
	}
}

// TestQuickNoExpiredSurvivors: after Expire(now), no surviving record is
// older than the idle timeout — for arbitrary interleavings of updates.
func TestQuickNoExpiredSurvivors(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tab := New(Config{IdleTimeout: time.Minute})
		now := t0
		for i := 0; i < 300; i++ {
			now = now.Add(time.Duration(rng.Intn(20)) * time.Second)
			ft := tuple(uint32(rng.Intn(30)+1), uint32(rng.Intn(30)+100), uint16(rng.Intn(5)+1), 80)
			tab.Update(ft, now, 1, 40)
		}
		tab.Expire(now)
		cutoff := now.Add(-time.Minute)
		for _, e := range tab.index {
			if e != 0 && !tab.rec(e-1).LastSeen.After(cutoff) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickEntryBudgetInvariant: the table never exceeds MaxEntries.
func TestQuickEntryBudgetInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		budget := 5 + rng.Intn(20)
		tab := New(Config{MaxEntries: budget, IdleTimeout: time.Hour})
		now := t0
		for i := 0; i < 200; i++ {
			now = now.Add(time.Second)
			ft := tuple(rng.Uint32()|1, rng.Uint32()|1, uint16(rng.Intn(65535)+1), 80)
			tab.Update(ft, now, 1, 40)
			if tab.Len() > budget {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUpdateHot(b *testing.B) {
	tab := New(Config{IdleTimeout: time.Hour})
	ft := tuple(1, 2, 1000, 80)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tab.Update(ft, t0.Add(time.Duration(i)), 1, 100)
	}
}

func BenchmarkUpdateChurn(b *testing.B) {
	tab := New(Config{IdleTimeout: time.Minute, MaxEntries: 4096})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ft := tuple(uint32(i)|1, uint32(i>>4)|1, uint16(i%60000+1), 80)
		tab.Update(ft, t0.Add(time.Duration(i)*time.Millisecond), 1, 100)
	}
}

// Expire removes all records idle at time now and returns how many.
func (t *Table) Expire(now time.Time) int {
	before := t.stats.Expired
	t.expireBefore(now.UnixNano() - t.idle)
	return int(t.stats.Expired - before)
}

// Bytes reports the current accounted memory.
func (t *Table) Bytes() int { return t.live * recordBytes }
