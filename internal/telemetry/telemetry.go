// Package telemetry is the controller-side fleet telemetry plane: a
// network-wide view of per-node health built from compact stats records
// that ride the existing control-plane wire exchanges.
//
// The design mirrors internal/obs and internal/trace:
//
//   - nil-is-no-op: a nil *Fleet or *History accepts every call and does
//     nothing, so call sites never branch on whether telemetry is enabled.
//   - write-only: nothing in the control or data plane ever reads fleet
//     state back to make a decision. A run with the fleet plane attached
//     produces byte-identical reports to a run without it.
//   - no extra wire traffic: NodeStats piggyback on exchanges the agent
//     was already making (an omitempty request field), so the chaos fault
//     stream sees the exact same dial sequence either way. A node that
//     cannot reach the controller is, by construction, indistinguishable
//     from a dead one — the fleet view is the controller's wire truth.
//
// Determinism: every FleetSnapshot field except WallMs is a pure function
// of the run's seeded inputs. Tests that compare snapshots across worker
// counts zero WallMs first.
package telemetry

import (
	"fmt"
	"sync"
	"time"
)

// NodeStats is one node's compact self-report, collected by the cluster
// runtime at the end of an epoch and delivered to the controller on the
// node's next wire exchange. All fields other than Node are omitempty so
// the zero report marshals small and v1 golden request lines stay
// byte-stable when no stats are attached at all.
type NodeStats struct {
	Node int `json:"node"`
	// Epoch is the manifest generation installed on the node when the
	// report was taken.
	Epoch uint64 `json:"epoch,omitempty"`
	// Lag is how many generations behind the controller the node was at
	// collection time (0 for a node that synced this epoch).
	Lag uint64 `json:"lag,omitempty"`
	// StaleEpochs counts consecutive epochs the node has failed to sync.
	StaleEpochs int `json:"stale_epochs,omitempty"`
	// Fetch counters for the epoch the report covers.
	FetchErrors   int `json:"fetch_errors,omitempty"`
	FetchTimeouts int `json:"fetch_timeouts,omitempty"`
	FetchRetries  int `json:"fetch_retries,omitempty"`
	// ShedWidth is the total hash-range width the governor has shed on
	// this node (0 when the node analyzes its full assignment).
	ShedWidth float64 `json:"shed_width,omitempty"`
	// FloorLimited reports that the governor wanted to shed more but was
	// pinned at the r=1 coverage floor.
	FloorLimited bool `json:"floor_limited,omitempty"`
	// Engine-side load for the epoch: sessions ingested, alerts raised,
	// and live conn-table size.
	Sessions int `json:"sessions,omitempty"`
	Alerts   int `json:"alerts,omitempty"`
	Conns    int `json:"conns,omitempty"`
	// Draining marks a deliberate maintenance drain: the node's farewell
	// report before it goes silent, so the fleet classifies the silence
	// as stale (planned) rather than dark (failed).
	Draining bool `json:"draining,omitempty"`
}

// Health is the fleet's per-node classification.
type Health int

const (
	// Healthy: reported this epoch, synced, analyzing its full share.
	Healthy Health = iota
	// Stale: lagging the controller, failing syncs within grace, or
	// silent but known to be draining.
	Stale
	// Shedding: reporting and synced but the governor has shed load
	// (or is pinned at the coverage floor).
	Shedding
	// Dark: silent past the dark threshold with no drain farewell —
	// crashed, partitioned, or gone.
	Dark
)

var healthNames = [...]string{"healthy", "stale", "shedding", "dark"}

func (h Health) String() string {
	if h < 0 || int(h) >= len(healthNames) {
		return fmt.Sprintf("health(%d)", int(h))
	}
	return healthNames[h]
}

// MarshalJSON encodes the health state as its lowercase name so snapshots
// read naturally over HTTP and in goldens.
func (h Health) MarshalJSON() ([]byte, error) {
	return []byte(`"` + h.String() + `"`), nil
}

// UnmarshalJSON accepts the lowercase names emitted by MarshalJSON.
func (h *Health) UnmarshalJSON(b []byte) error {
	s := string(b)
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		s = s[1 : len(s)-1]
	}
	for i, name := range healthNames {
		if s == name {
			*h = Health(i)
			return nil
		}
	}
	return fmt.Errorf("telemetry: unknown health %q", s)
}

// NodeView is one node's row in a FleetSnapshot: the last stats the
// controller heard plus the fleet's classification.
type NodeView struct {
	NodeStats
	Health Health `json:"health"`
	// Silent counts consecutive completed epochs with no report from the
	// node (0 = reported this epoch).
	Silent int `json:"silent,omitempty"`
}

// FleetSnapshot is the fleet's state at the end of one run epoch.
type FleetSnapshot struct {
	// RunEpoch is the cluster runtime's 1-based epoch counter.
	RunEpoch int `json:"run_epoch"`
	// CtrlEpoch is the controller's manifest generation at sampling time.
	CtrlEpoch uint64 `json:"ctrl_epoch"`
	// WallMs is the only wall-clock field in the snapshot; determinism
	// comparisons must zero it.
	WallMs int64 `json:"wall_ms,omitempty"`

	Nodes []NodeView `json:"nodes"`

	Healthy  int `json:"healthy"`
	Stale    int `json:"stale"`
	Shedding int `json:"shedding"`
	Dark     int `json:"dark"`
}

// Counts returns the per-state totals as a map keyed by state name.
func (s *FleetSnapshot) Counts() map[string]int {
	if s == nil {
		return nil
	}
	return map[string]int{
		"healthy":  s.Healthy,
		"stale":    s.Stale,
		"shedding": s.Shedding,
		"dark":     s.Dark,
	}
}

// FleetOptions tune the health state machine.
type FleetOptions struct {
	// DarkAfter is how many consecutive silent epochs turn a node dark.
	// 0 means the default of 1: miss one full epoch, go dark.
	DarkAfter int
	// DrainGrace is how many silent epochs a draining farewell covers
	// before even a drained node is considered dark. 0 means 4.
	DrainGrace int
}

func (o FleetOptions) withDefaults() FleetOptions {
	if o.DarkAfter <= 0 {
		o.DarkAfter = 1
	}
	if o.DrainGrace <= 0 {
		o.DrainGrace = 4
	}
	return o
}

// Fleet aggregates NodeStats reports into per-epoch snapshots. The
// controller feeds it from the wire (Report); the cluster runtime closes
// each epoch (EndEpoch). All methods are safe on a nil receiver and safe
// for concurrent use.
type Fleet struct {
	mu   sync.Mutex
	n    int
	opts FleetOptions

	last      []NodeStats // last report heard per node
	seenRound []int       // round the last report arrived in; -1 = never
	round     int         // current epoch round, bumped by EndEpoch

	latest *FleetSnapshot
}

// NewFleet builds a fleet tracker for nodes 0..n-1.
func NewFleet(n int, opts FleetOptions) *Fleet {
	f := &Fleet{n: n, opts: opts.withDefaults()}
	f.last = make([]NodeStats, n)
	f.seenRound = make([]int, n)
	for i := range f.last {
		f.last[i] = NodeStats{Node: i}
		f.seenRound[i] = -1
	}
	return f
}

// Report folds one node's stats into the current round. Duplicate reports
// within a round are last-write-wins, which keeps retried exchanges
// idempotent. Out-of-range nodes are dropped.
func (f *Fleet) Report(s NodeStats) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s.Node < 0 || s.Node >= f.n {
		return
	}
	f.last[s.Node] = s
	f.seenRound[s.Node] = f.round
}

// classify applies the health state machine to one node given how many
// completed rounds it has been silent.
func (f *Fleet) classify(s NodeStats, silent int) Health {
	if silent == 0 {
		switch {
		case s.Draining:
			return Stale
		case s.ShedWidth > 0 || s.FloorLimited:
			return Shedding
		case s.Lag > 0 || s.StaleEpochs > 0:
			return Stale
		default:
			return Healthy
		}
	}
	// Silent this round. A drain farewell buys DrainGrace epochs of
	// "stale"; anything else goes dark at DarkAfter.
	if s.Draining && silent <= f.opts.DrainGrace {
		return Stale
	}
	if silent < f.opts.DarkAfter {
		return Stale
	}
	return Dark
}

// EndEpoch closes the current round: it classifies every node, builds the
// snapshot for runEpoch at controller generation ctrlEpoch, and starts the
// next round. Returns the zero snapshot on a nil fleet.
func (f *Fleet) EndEpoch(runEpoch int, ctrlEpoch uint64) FleetSnapshot {
	if f == nil {
		return FleetSnapshot{}
	}
	f.mu.Lock()
	defer f.mu.Unlock()

	snap := FleetSnapshot{
		RunEpoch:  runEpoch,
		CtrlEpoch: ctrlEpoch,
		WallMs:    time.Now().UnixMilli(),
		Nodes:     make([]NodeView, f.n),
	}
	for j := 0; j < f.n; j++ {
		silent := 0
		if f.seenRound[j] < f.round {
			if f.seenRound[j] < 0 {
				silent = f.round + 1
			} else {
				silent = f.round - f.seenRound[j]
			}
		}
		v := NodeView{NodeStats: f.last[j], Silent: silent}
		v.Health = f.classify(f.last[j], silent)
		snap.Nodes[j] = v
		switch v.Health {
		case Healthy:
			snap.Healthy++
		case Stale:
			snap.Stale++
		case Shedding:
			snap.Shedding++
		case Dark:
			snap.Dark++
		}
	}
	f.round++
	cp := snap
	f.latest = &cp
	return snap
}

// Latest returns a copy of the most recent snapshot, or nil if no epoch
// has closed yet (or the fleet itself is nil).
func (f *Fleet) Latest() *FleetSnapshot {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.latest == nil {
		return nil
	}
	cp := *f.latest
	cp.Nodes = append([]NodeView(nil), f.latest.Nodes...)
	return &cp
}
