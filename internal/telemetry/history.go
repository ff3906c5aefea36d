package telemetry

import (
	"encoding/json"
	"io"
	"sync"
)

// History is a fixed-capacity ring of fleet snapshots, one per epoch.
// Like Fleet it is nil-safe and write-only: the runtime appends one
// snapshot per epoch and readers (HTTP handlers, cmd/fleetstat) render
// copies. When the ring is full the oldest snapshot falls off.
type History struct {
	mu    sync.Mutex
	ring  []FleetSnapshot
	head  int // index of the oldest entry
	count int
}

// NewHistory builds a history ring holding up to capacity snapshots.
// Capacity <= 0 defaults to 64.
func NewHistory(capacity int) *History {
	if capacity <= 0 {
		capacity = 64
	}
	return &History{ring: make([]FleetSnapshot, capacity)}
}

// Add appends a snapshot, evicting the oldest when full. No-op on nil.
func (h *History) Add(s FleetSnapshot) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count < len(h.ring) {
		h.ring[(h.head+h.count)%len(h.ring)] = s
		h.count++
		return
	}
	h.ring[h.head] = s
	h.head = (h.head + 1) % len(h.ring)
}

// Snapshots returns the retained snapshots oldest-first.
func (h *History) Snapshots() []FleetSnapshot {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]FleetSnapshot, h.count)
	for i := 0; i < h.count; i++ {
		out[i] = h.ring[(h.head+i)%len(h.ring)]
	}
	return out
}

// WriteJSON writes the retained history oldest-first as one indented JSON
// array. The encoding is stable: snapshots are emitted in insertion order
// and every map-free struct field marshals in declaration order.
func (h *History) WriteJSON(w io.Writer) error {
	snaps := h.Snapshots()
	if snaps == nil {
		snaps = []FleetSnapshot{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snaps)
}
