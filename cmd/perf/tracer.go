package main

// tracer.go records spans around the benchmark's own calls into each layer.
// Spans stay in memory during a run and are written as JSON lines at exit;
// nothing inside the program under test is instrumented.

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one bracketed call. Spans of one iteration share Iter.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for an iteration's root span
	Name   string `json:"name"`
	Iter   int    `json:"iter"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer collects spans. The nil tracer and a tracer that is switched off
// record nothing and cost one branch per call, so workloads bracket their
// calls unconditionally and the harness decides per iteration.
type tracer struct {
	mu    sync.Mutex
	on    bool
	iter  int
	warm  int // spans of iterations below this are recorded but not summed
	t0    time.Time
	spans []span
}

func newTracer(warm int) *tracer { return &tracer{warm: warm, t0: time.Now()} }

// iteration tags the spans that follow and switches recording on or off.
func (t *tracer) iteration(i int, on bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.iter, t.on = i, on
	t.mu.Unlock()
}

// begin opens a span under parent (-1 for a root) and returns its id, or -1
// when nothing is recorded.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Iter: t.iter, Start: time.Since(t.t0).Nanoseconds()})
	return id
}

func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// layerTime is what the spans of one name add up to.
type layerTime struct {
	count  int
	nanos  int64 // total duration
	selfNs int64 // duration minus the part child spans cover
}

// meanNs is the mean duration of the name's spans, 0 when there are none.
func (l layerTime) meanNs() float64 {
	if l.count == 0 {
		return 0
	}
	return float64(l.nanos) / float64(l.count)
}

// layers sums the spans of measured iterations (warm-up excluded) by name.
// A span's self time subtracts the union of its children's intervals, so
// children running in parallel are not subtracted twice.
func (t *tracer) layers() map[string]layerTime {
	out := make(map[string]layerTime)
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range t.spans {
		if s.Iter < t.warm {
			continue
		}
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered, hi int64
		hi = s.Start
		for _, k := range kids {
			lo := k.Start
			if lo < hi {
				lo = hi
			}
			if k.End > lo {
				covered += k.End - lo
				hi = k.End
			}
		}
		lt := out[s.Name]
		lt.count++
		lt.nanos += s.End - s.Start
		lt.selfNs += s.End - s.Start - covered
		out[s.Name] = lt
	}
	return out
}

// durations lists the measured spans of one name, in ns.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.Iter >= t.warm {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// writeJSONL writes every recorded span, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
