package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

// TestNilRegistryIsNoOp pins the zero-value contract: every operation on
// a nil registry (and on the nil metric handles it returns) must be safe
// and do nothing.
func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	r.Add("c", 5)
	r.Set("g", 1.5)
	r.Observe("h", 9)
	if c := r.Counter("c"); c != nil {
		t.Fatalf("nil registry returned non-nil counter")
	}
	var c *Counter
	c.Add(3)
	if c.Value() != 0 {
		t.Fatalf("nil counter value = %d", c.Value())
	}
	var g *Gauge
	g.Set(2)
	g.Max(3)
	if g.Value() != 0 {
		t.Fatalf("nil gauge value = %g", g.Value())
	}
	var h *Histogram
	h.Observe(7)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("nil histogram recorded observations")
	}
	sp := r.StartSpan("solve")
	sp.End() // must not panic, must not record
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Gauges) != 0 || len(snap.Histograms) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", snap)
	}
}

func TestCountersGaugesHistograms(t *testing.T) {
	r := New()
	r.Counter("pivots").Add(3)
	r.Counter("pivots").Add(4)
	if got := r.Counter("pivots").Value(); got != 7 {
		t.Fatalf("counter = %d, want 7", got)
	}
	r.Gauge("epoch").Set(4)
	r.Gauge("epoch").Set(9)
	if got := r.Gauge("epoch").Value(); got != 9 {
		t.Fatalf("gauge = %g, want 9", got)
	}
	g := r.Gauge("best")
	g.Max(3)
	g.Max(2)
	if got := g.Value(); got != 3 {
		t.Fatalf("gauge max = %g, want 3", got)
	}
	h := r.Histogram("iters")
	for _, v := range []int64{0, 1, 2, 3, 4, 1024} {
		h.Observe(v)
	}
	if h.Count() != 6 || h.Sum() != 1034 {
		t.Fatalf("histogram count=%d sum=%d", h.Count(), h.Sum())
	}
}

// TestBucketIndex pins the log-scale bucket layout: bucket 0 holds v<=1,
// bucket i holds [2^(i-1), 2^i).
func TestBucketIndex(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 0}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1023, 10}, {1024, 11}, {1 << 40, 41},
	}
	for _, c := range cases {
		if got := bucketIndex(c.v); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

// TestSnapshotStable asserts two snapshots of the same registry state
// serialize to identical bytes in both the JSON and text forms.
func TestSnapshotStable(t *testing.T) {
	r := New()
	r.Add("b.count", 2)
	r.Add("a.count", 1)
	r.Set("gauge.z", 0.5)
	r.Observe("lat", 100)
	r.Observe("lat", 3000)

	var j1, j2, t1, t2 bytes.Buffer
	if err := r.Snapshot().WriteJSON(&j1); err != nil {
		t.Fatal(err)
	}
	if err := r.Snapshot().WriteJSON(&j2); err != nil {
		t.Fatal(err)
	}
	if j1.String() != j2.String() {
		t.Fatalf("JSON snapshots differ:\n%s\n%s", j1.String(), j2.String())
	}
	if err := r.Snapshot().WriteText(&t1); err != nil {
		t.Fatal(err)
	}
	if err := r.Snapshot().WriteText(&t2); err != nil {
		t.Fatal(err)
	}
	if t1.String() != t2.String() {
		t.Fatalf("text snapshots differ:\n%s\n%s", t1.String(), t2.String())
	}
	for _, want := range []string{"a.count 1", "b.count 2", "gauge.z 0.5", "lat.count 2", "lat.sum 3100"} {
		if !strings.Contains(t1.String(), want) {
			t.Errorf("text snapshot missing %q:\n%s", want, t1.String())
		}
	}
	// Sorted: "a.count" line precedes "b.count".
	if strings.Index(t1.String(), "a.count") > strings.Index(t1.String(), "b.count") {
		t.Errorf("text snapshot not sorted:\n%s", t1.String())
	}
}

// TestConcurrentUse exercises the registry from many goroutines; run
// under -race this pins the thread-safety of handle creation and updates.
func TestConcurrentUse(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("shared").Add(1)
				r.Gauge("g").Set(float64(j))
				r.Histogram("h").Observe(int64(j))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != 8000 {
		t.Fatalf("shared counter = %d, want 8000", got)
	}
	if got := r.Histogram("h").Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}

func TestSpanRecordsDuration(t *testing.T) {
	r := New()
	sp := r.StartSpan("solve_ns")
	sp.End()
	h := r.Histogram("solve_ns")
	if h.Count() != 1 {
		t.Fatalf("span did not record: count = %d", h.Count())
	}
	if h.Sum() < 0 {
		t.Fatalf("span recorded negative duration: %d", h.Sum())
	}
}

// TestSnapshotOrderIndependentOfRegistration builds the same metric state
// through two interleaved registration orders and asserts both the text
// and JSON renderings are byte-identical: snapshot output must be a
// function of the metric state alone, never of the order handles were
// created in.
func TestSnapshotOrderIndependentOfRegistration(t *testing.T) {
	fill := func(order []int) *Registry {
		r := New()
		ops := []func(){
			func() { r.Add("solver.iters", 12) },
			func() { r.Set("cluster.coverage", 0.97) },
			func() { r.Observe("fetch_ns", 1500) },
			func() { r.Add("agent.fetches", 3) },
			func() { r.Set("governor.shed_width", 0.25) },
			func() { r.Observe("solve_ns", 900) },
		}
		for _, i := range order {
			ops[i]()
		}
		return r
	}
	a := fill([]int{0, 1, 2, 3, 4, 5})
	b := fill([]int{5, 3, 1, 4, 2, 0})

	var ta, tb, ja, jb bytes.Buffer
	if err := a.Snapshot().WriteText(&ta); err != nil {
		t.Fatal(err)
	}
	if err := b.Snapshot().WriteText(&tb); err != nil {
		t.Fatal(err)
	}
	if ta.String() != tb.String() {
		t.Fatalf("text snapshots differ across registration orders:\n%s\n---\n%s", ta.String(), tb.String())
	}
	if err := a.Snapshot().WriteJSON(&ja); err != nil {
		t.Fatal(err)
	}
	if err := b.Snapshot().WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	if ja.String() != jb.String() {
		t.Fatalf("JSON snapshots differ across registration orders:\n%s\n---\n%s", ja.String(), jb.String())
	}

	// Output order is by section (counters, gauges, histograms), sorted by
	// name within each, with histogram sub-lines grouped.
	wantOrder := []string{
		"agent.fetches 3", "solver.iters 12",
		"cluster.coverage 0.97", "governor.shed_width 0.25",
		"fetch_ns.count 1", "fetch_ns.sum 1500", "fetch_ns.mean",
		"solve_ns.count 1",
	}
	text := ta.String()
	last := -1
	for _, want := range wantOrder {
		i := strings.Index(text, want)
		if i < 0 {
			t.Fatalf("text snapshot missing %q:\n%s", want, text)
		}
		if i < last {
			t.Fatalf("text snapshot out of order at %q:\n%s", want, text)
		}
		last = i
	}
}
