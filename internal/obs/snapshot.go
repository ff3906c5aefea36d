package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// Snapshot is a stable point-in-time copy of a registry. Map keys are
// metric names; the JSON form sorts them (encoding/json sorts map keys),
// and WriteText emits one sorted line per metric, so two snapshots of
// identical registries serialize identically.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters,omitempty"`
	Gauges     map[string]float64      `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
}

// HistSnapshot is the serializable form of one histogram. Buckets lists
// only the non-empty log-scale buckets in ascending upper-bound order.
// P50 and P99 are bucket-quantile estimates (<=2x error, see Quantile)
// precomputed at snapshot time; they are derived from Buckets and carry
// no extra information, but make the JSON self-contained for dashboards.
type HistSnapshot struct {
	Count   int64    `json:"count"`
	Sum     int64    `json:"sum"`
	P50     int64    `json:"p50,omitempty"`
	P99     int64    `json:"p99,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Quantile estimates the q-quantile from the snapshot's bucket counts,
// with the same <=2x power-of-two bucket error as Histogram.Quantile.
// Returns 0 for an empty snapshot.
func (h HistSnapshot) Quantile(q float64) int64 {
	if h.Count <= 0 || len(h.Buckets) == 0 {
		return 0
	}
	rank := quantileRank(q, h.Count)
	var cum int64
	for _, b := range h.Buckets {
		cum += b.N
		if cum >= rank {
			return b.Le
		}
	}
	return h.Buckets[len(h.Buckets)-1].Le
}

// Bucket is one non-empty histogram bucket: N observations v with
// v <= Le and v > the previous bucket's Le (Le is 2^i - 1 style
// power-of-two upper bound; the final bucket's Le is math.MaxInt64).
type Bucket struct {
	Le int64 `json:"le"`
	N  int64 `json:"n"`
}

// bucketUpper returns the inclusive upper bound of log-scale bucket i.
func bucketUpper(i int) int64 {
	if i == 0 {
		return 1
	}
	if i >= 63 {
		return int64(^uint64(0) >> 1) // MaxInt64
	}
	return int64(1)<<uint(i) - 1
}

// Snapshot copies the registry's current state. On a nil registry it
// returns an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		hs := HistSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
		for i := 0; i < histBuckets; i++ {
			if n := h.buckets[i].Load(); n > 0 {
				hs.Buckets = append(hs.Buckets, Bucket{Le: bucketUpper(i), N: n})
			}
		}
		hs.P50 = hs.Quantile(0.5)
		hs.P99 = hs.Quantile(0.99)
		s.Histograms[name] = hs
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON with sorted keys.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// sortedKeys returns m's keys in ascending name order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WriteText writes the snapshot as "name value" lines, one metric per
// line — a grep-friendly alternative to the JSON form. Output order is a
// function of the metric names alone: counters, then gauges, then
// histograms, each section in sorted name order, with each histogram's
// .count/.sum/.mean/.p50/.p99 lines kept together. (Sorting rendered
// lines instead
// would let values and cross-section prefix collisions decide ordering,
// so two registries with the same metric names could interleave
// differently.)
func (s Snapshot) WriteText(w io.Writer) error {
	var lines []string
	for _, name := range sortedKeys(s.Counters) {
		lines = append(lines, fmt.Sprintf("%s %d", name, s.Counters[name]))
	}
	for _, name := range sortedKeys(s.Gauges) {
		lines = append(lines, fmt.Sprintf("%s %g", name, s.Gauges[name]))
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		lines = append(lines, fmt.Sprintf("%s.count %d", name, h.Count))
		lines = append(lines, fmt.Sprintf("%s.sum %d", name, h.Sum))
		mean := 0.0
		if h.Count > 0 {
			mean = float64(h.Sum) / float64(h.Count)
		}
		lines = append(lines, fmt.Sprintf("%s.mean %.3f", name, mean))
		lines = append(lines, fmt.Sprintf("%s.p50 %d", name, h.Quantile(0.5)))
		lines = append(lines, fmt.Sprintf("%s.p99 %d", name, h.Quantile(0.99)))
	}
	for _, l := range lines {
		if _, err := fmt.Fprintln(w, l); err != nil {
			return err
		}
	}
	return nil
}

// WriteFile writes the registry's current snapshot as JSON to path,
// creating or truncating it. A nil registry writes an empty snapshot,
// so callers can wire the -metrics flag unconditionally.
func (r *Registry) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.Snapshot().WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
