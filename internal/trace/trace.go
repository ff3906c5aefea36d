// Package trace is the control plane's causal observability layer: a
// deterministic, allocation-light event log that follows one epoch across
// the controller, every node agent, the per-node load governors, and the
// replanning machinery. Where internal/obs answers "how much" (counters,
// gauges, histograms), trace answers "why": which node shed which hash
// range, which fetch attempt timed out, which replan missed its deadline
// — the per-sensor audit trail distributed-IDS operation turns on.
//
// # Zero-value contract
//
// A nil *Tracer is the no-op tracer and is the default everywhere,
// mirroring obs.Registry: every method on *Tracer, *Component, the zero
// Span, and *Watchdog is nil-safe and does nothing. Instrumented code
// pays no allocation and no lock when no tracer is attached.
//
// # Determinism contract
//
// Traces are byte-identical across worker counts. Three rules make that
// hold, and every emitter in the repo obeys them:
//
//   - IDs are seeded, never random or clock-derived: the trace ID for
//     epoch e is SplitMix64(seed, e), and every span ID derives from its
//     parent's ID plus a stable (kind, id) stream — see parallel.SplitSeed.
//   - Events carry only logical fields (epoch, sequence numbers, counts,
//     range widths), never wall-clock readings.
//   - Each component (one agent, one governor, the controller, the epoch
//     runtime) is written by at most one goroutine at a time, under the
//     same happens-before edges the cluster's reports already rely on, so
//     each component's event sequence is schedule-independent. Dumps walk
//     components in sorted (kind, id) order, which makes the whole JSONL
//     file reproducible bit for bit.
//
// # Flight recorder
//
// Events land in fixed-size per-component rings (the flight recorder):
// steady-state tracing is O(1) memory, and when a guarantee is violated —
// a coverage audit failure, a governor floor breach, a replan deadline
// miss, an SLO violation — the runtime dumps the rings once as a JSONL
// post-mortem (DumpOnce) holding the most recent events per component:
// the causal chain that led to the violation.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"

	"nwdeploy/internal/parallel"
)

// Event types — the taxonomy every emitter draws from and Validate checks
// against. Adding a type here is adding it to the wire schema.
const (
	// Control-plane lifecycle.
	EvEpochStart   = "epoch_start"   // runtime: one epoch begins (attrs: ctrl_down, down)
	EvPublish      = "publish"       // controller: a plan generation was published
	EvShedPublish  = "shed_publish"  // controller: a node's shed state was published
	EvCrashRestart = "crash_restart" // agent: process crashed, manifest lost

	// Agent fetch loop.
	EvFetchOK    = "fetch_ok"    // manifest confirmed/installed (attrs: attempt, ctrl_epoch, pub_span)
	EvFetchRetry = "fetch_retry" // attempt failed, backing off (attrs: attempt, err)
	EvFetchFail  = "fetch_fail"  // final attempt failed, epoch lost (attrs: attempts, err)
	EvStaleGrace = "stale_grace" // enforcing an unconfirmed manifest within grace (attrs: stale)
	EvWentDark   = "went_dark"   // no manifest or stale beyond grace: analyzing nothing

	// Data plane.
	EvEngineRun = "engine_run" // agent: one engine run over the node's trace (attrs: alerts, conns, cpu)

	// Overload machinery.
	EvDrift        = "drift"         // runtime: drift detector observation (attrs: rel_err, drifted)
	EvOverrun      = "overrun"       // governor: projected load over tolerated budget
	EvShedPlanned  = "shed_planned"  // governor: ranges shed this epoch (attrs: width, slices)
	EvShedRestore  = "shed_restore"  // governor: load fits again, shed state cleared
	EvFloorLimited = "floor_limited" // governor: only floor copies remain, node runs hot
	EvReplanWarm   = "replan_warm"   // runtime: warm-started re-solve landed (attrs: iters)
	EvReplanCold   = "replan_cold"   // runtime: cold re-solve landed (attrs: iters)
	EvDeadlineMiss = "deadline_miss" // runtime: re-solve hit the iteration deadline

	// Scenario machinery.
	EvDrain  = "drain"  // agent: planned maintenance drain, manifest retained
	EvInject = "inject" // runtime: scenario injected extra sessions this epoch (attrs: count)

	// Audit & watchdog.
	EvCoverage          = "coverage_audit"     // runtime: achieved vs predicted coverage
	EvCoverageViolation = "coverage_violation" // runtime: achieved fell below predicted
	EvSLOViolation      = "slo_violation"      // watchdog: a declarative threshold was breached
	EvDump              = "dump"               // recorder: synthetic first line of a post-mortem
)

// KnownTypes returns the full event taxonomy in stable order — Validate
// checks dumped files against it.
func KnownTypes() []string {
	return []string{
		EvEpochStart, EvPublish, EvShedPublish, EvCrashRestart,
		EvFetchOK, EvFetchRetry, EvFetchFail, EvStaleGrace, EvWentDark,
		EvEngineRun,
		EvDrift, EvOverrun, EvShedPlanned, EvShedRestore, EvFloorLimited,
		EvReplanWarm, EvReplanCold, EvDeadlineMiss,
		EvDrain, EvInject,
		EvCoverage, EvCoverageViolation, EvSLOViolation, EvDump,
	}
}

// Attr is one typed event attribute. Values are pre-rendered strings so
// the wire schema stays uniform and float formatting is deterministic.
type Attr struct {
	K string `json:"k"`
	V string `json:"v"`
}

// Str builds a string attribute.
func Str(k, v string) Attr { return Attr{K: k, V: v} }

// Int builds an integer attribute.
func Int(k string, v int) Attr { return Attr{K: k, V: strconv.Itoa(v)} }

// Uint64 builds an unsigned attribute (epoch generations).
func Uint64(k string, v uint64) Attr { return Attr{K: k, V: strconv.FormatUint(v, 10)} }

// F64 builds a float attribute with shortest-round-trip formatting, which
// is deterministic for a deterministic value.
func F64(k string, v float64) Attr { return Attr{K: k, V: strconv.FormatFloat(v, 'g', -1, 64)} }

// Event is one flight-recorder entry: a typed occurrence on a span. All
// fields are logical, so same-seed runs produce DeepEqual events.
type Event struct {
	// Trace and Span identify the causal context (16 hex digits each);
	// Parent is the span this span derived from ("" for an epoch root).
	Trace  string `json:"trace"`
	Span   string `json:"span"`
	Parent string `json:"parent,omitempty"`
	// Epoch is the runtime epoch the event belongs to (0 = setup).
	Epoch int `json:"epoch"`
	// Comp and Node name the emitting component; Node is -1 for
	// singletons (runtime, controller, watchdog, recorder).
	Comp string `json:"comp"`
	Node int    `json:"node"`
	// Seq is the component's emission counter. It survives ring eviction,
	// so gaps in a dump reveal exactly how many events were dropped.
	Seq  int    `json:"seq"`
	Type string `json:"type"`
	// Attrs are the typed payload, in emission order.
	Attrs []Attr `json:"attrs,omitempty"`
}

// Options configures a Tracer.
type Options struct {
	// Seed drives every trace and span ID via SplitMix64 splitting. Use
	// the run seed so traces line up with the chaos/burst decisions.
	Seed int64
	// RingSize is the per-component flight-recorder capacity in events
	// (0 selects 512). Older events are evicted FIFO.
	RingSize int
}

// Tracer owns the component rings and the ID derivation for one run. The
// nil *Tracer is the no-op tracer (see the package docs). All methods are
// safe for concurrent use.
type Tracer struct {
	seed     int64
	ringSize int

	mu    sync.Mutex
	comps map[compKey]*Component

	sinkMu sync.Mutex
	sink   io.Writer
	dumped bool

	headMu    sync.Mutex
	chainHead func() string
}

type compKey struct {
	kind string
	id   int
}

// New returns a live tracer.
func New(o Options) *Tracer {
	if o.RingSize <= 0 {
		o.RingSize = 512
	}
	return &Tracer{seed: o.Seed, ringSize: o.RingSize, comps: make(map[compKey]*Component)}
}

// Component returns the named component's ring, creating it on first use.
// Use id -1 for singleton components. On a nil tracer it returns nil,
// itself a valid no-op component.
func (t *Tracer) Component(kind string, id int) *Component {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	key := compKey{kind, id}
	c, ok := t.comps[key]
	if !ok {
		c = &Component{tracer: t, kind: kind, id: id, ring: make([]Event, 0, t.ringSize)}
		t.comps[key] = c
	}
	return c
}

// Component is one emitter's flight-recorder ring. Writers must respect
// the package's one-writer-at-a-time contract for determinism; the mutex
// only keeps racing writers memory-safe, not order-deterministic.
type Component struct {
	tracer *Tracer
	kind   string
	id     int

	mu      sync.Mutex
	seq     int
	dropped int
	ring    []Event // FIFO once full: head marks the oldest entry
	head    int
}

// emit appends one event, evicting the oldest when the ring is full.
func (c *Component) emit(ev Event) {
	if c == nil {
		return
	}
	c.mu.Lock()
	ev.Comp, ev.Node = c.kind, c.id
	ev.Seq = c.seq
	c.seq++
	if len(c.ring) < cap(c.ring) {
		c.ring = append(c.ring, ev)
	} else {
		c.ring[c.head] = ev
		c.head = (c.head + 1) % len(c.ring)
		c.dropped++
	}
	c.mu.Unlock()
}

// events returns the ring's entries oldest-first, plus the drop count.
func (c *Component) events() ([]Event, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Event, 0, len(c.ring))
	for i := 0; i < len(c.ring); i++ {
		out = append(out, c.ring[(c.head+i)%len(c.ring)])
	}
	return out, c.dropped
}

// Span is a causal context: a (trace, span, parent) triple bound to the
// component that records its events. The zero Span is inert — Event is a
// no-op and Child returns another zero Span — which is what lets call
// sites thread spans unconditionally.
type Span struct {
	comp    *Component
	traceID uint64
	id      uint64
	parent  uint64
	epoch   int
}

// Epoch starts (or re-derives) the root span of one epoch's trace,
// recorded under the singleton "runtime" component. The trace ID is a
// pure function of (tracer seed, epoch), so re-deriving it — as the
// controller-publish path does before the epoch loop formally begins —
// always lands in the same trace.
func (t *Tracer) Epoch(epoch int) Span {
	if t == nil {
		return Span{}
	}
	tid := uint64(parallel.SplitSeed(t.seed, int64(epoch)))
	return Span{
		comp:    t.Component("runtime", -1),
		traceID: tid,
		id:      uint64(parallel.SplitSeed(int64(tid), 0)),
		epoch:   epoch,
	}
}

// streamOf folds a component identity into a SplitMix64 stream. FNV-1a
// over the kind keeps distinct kinds on distinct streams; the odd
// multiplier spreads ids within a kind.
func streamOf(kind string, id int) int64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(kind); i++ {
		h ^= uint64(kind[i])
		h *= 1099511628211
	}
	return int64(h ^ uint64(id)*0x9e3779b97f4a7c15)
}

// Child derives the span for component (kind, id) under s. The child's ID
// is a pure function of the parent ID and the component identity, so the
// derivation chain is reproducible from the run seed alone, from any
// goroutine, with no shared counter.
func (s Span) Child(kind string, id int) Span {
	if s.comp == nil {
		return Span{}
	}
	return Span{
		comp:    s.comp.tracer.Component(kind, id),
		traceID: s.traceID,
		id:      uint64(parallel.SplitSeed(int64(s.id), streamOf(kind, id))),
		parent:  s.id,
		epoch:   s.epoch,
	}
}

// Live reports whether events on this span are recorded.
func (s Span) Live() bool { return s.comp != nil }

// Epoch returns the span's epoch (0 on the zero span).
func (s Span) Epoch() int { return s.epoch }

// TraceHex and SpanHex render the IDs as fixed-width hex — the wire form
// carried in manifest headers ("" on the zero span).
func (s Span) TraceHex() string {
	if s.comp == nil {
		return ""
	}
	return fmt.Sprintf("%016x", s.traceID)
}

// SpanHex renders the span ID ("" on the zero span).
func (s Span) SpanHex() string {
	if s.comp == nil {
		return ""
	}
	return fmt.Sprintf("%016x", s.id)
}

// Event records one typed event on the span. No-op on the zero span.
func (s Span) Event(typ string, attrs ...Attr) {
	if s.comp == nil {
		return
	}
	ev := Event{
		Trace: fmt.Sprintf("%016x", s.traceID),
		Span:  fmt.Sprintf("%016x", s.id),
		Epoch: s.epoch,
		Type:  typ,
		Attrs: attrs,
	}
	if s.parent != 0 {
		ev.Parent = fmt.Sprintf("%016x", s.parent)
	}
	s.comp.emit(ev)
}

// sortedComponents snapshots the component set in (kind, id) order — the
// canonical dump order that makes output worker-count-independent.
func (t *Tracer) sortedComponents() []*Component {
	t.mu.Lock()
	comps := make([]*Component, 0, len(t.comps))
	for _, c := range t.comps {
		comps = append(comps, c)
	}
	t.mu.Unlock()
	sort.Slice(comps, func(a, b int) bool {
		if comps[a].kind != comps[b].kind {
			return comps[a].kind < comps[b].kind
		}
		return comps[a].id < comps[b].id
	})
	return comps
}

// Events returns every retained event, components in (kind, id) order and
// each component's events oldest-first — the canonical order tests
// DeepEqual across worker counts. Nil tracer returns nil.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	var out []Event
	for _, c := range t.sortedComponents() {
		evs, _ := c.events()
		out = append(out, evs...)
	}
	return out
}

// Stats reports the total events emitted (including evicted ones) and the
// number evicted from the rings. Zero on a nil tracer.
func (t *Tracer) Stats() (emitted, dropped int) {
	if t == nil {
		return 0, 0
	}
	for _, c := range t.sortedComponents() {
		c.mu.Lock()
		emitted += c.seq
		dropped += c.dropped
		c.mu.Unlock()
	}
	return emitted, dropped
}

// Dump writes the flight recorder as JSONL: one synthetic "dump" event
// naming the reason, then every retained event in canonical order. The
// bytes are a pure function of the recorded events and the reason, so
// same-seed runs dump identical files regardless of worker count.
func (t *Tracer) Dump(w io.Writer, reason string) error {
	if t == nil {
		return nil
	}
	comps := t.sortedComponents()
	type snap struct {
		events  []Event
		dropped int
	}
	var (
		snaps    = make([]snap, len(comps))
		nonEmpty int
		total    int
		dropped  int
	)
	for i, c := range comps {
		evs, d := c.events()
		snaps[i] = snap{evs, d}
		if len(evs) > 0 {
			nonEmpty++
		}
		total += len(evs)
		dropped += d
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	header := Event{
		Trace: fmt.Sprintf("%016x", uint64(parallel.SplitSeed(t.seed, -1))),
		Span:  fmt.Sprintf("%016x", uint64(parallel.SplitSeed(t.seed, -2))),
		Comp:  "recorder",
		Node:  -1,
		Type:  EvDump,
		Attrs: []Attr{
			Str("reason", reason),
			// Components counts only rings holding events: spans can create
			// a component without ever emitting to it, and such rings leave
			// no lines for a validator to account for.
			Int("components", nonEmpty),
			Int("events", total),
			Int("dropped", dropped),
		},
	}
	if h := t.chainHeadHex(); h != "" {
		// Cross-reference into the audit ledger: the chain head digest at
		// dump time pins which ledger prefix this flight recording belongs
		// to. Absent (golden-stable) when no ledger is attached.
		header.Attrs = append(header.Attrs, Str("chain_head", h))
	}
	if err := enc.Encode(header); err != nil {
		return err
	}
	for _, s := range snaps {
		for _, ev := range s.events {
			if err := enc.Encode(ev); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// SetChainHead installs a provider of the audit ledger's current chain
// head digest (hex). When set and returning non-empty, every Dump header
// carries a "chain_head" attribute binding the flight recording to the
// ledger prefix it was recorded against. A func (not a fixed string) so
// the header always reflects the head at dump time, not attach time.
func (t *Tracer) SetChainHead(head func() string) {
	if t == nil {
		return
	}
	t.headMu.Lock()
	t.chainHead = head
	t.headMu.Unlock()
}

// chainHeadHex resolves the chain head attribute ("" = omit).
func (t *Tracer) chainHeadHex() string {
	if t == nil {
		return ""
	}
	t.headMu.Lock()
	head := t.chainHead
	t.headMu.Unlock()
	if head == nil {
		return ""
	}
	return head()
}

// SetSink installs the post-mortem destination DumpOnce writes to.
func (t *Tracer) SetSink(w io.Writer) {
	if t == nil {
		return
	}
	t.sinkMu.Lock()
	t.sink = w
	t.sinkMu.Unlock()
}

// DumpOnce writes one post-mortem to the configured sink the first time a
// violation fires; later calls are no-ops, so the file always holds the
// ring state at the *first* violation (or the run's end, when the runtime
// finishes clean and flushes with a "run_end" reason). It reports whether
// this call performed the dump.
func (t *Tracer) DumpOnce(reason string) bool {
	if t == nil {
		return false
	}
	t.sinkMu.Lock()
	defer t.sinkMu.Unlock()
	if t.dumped || t.sink == nil {
		return false
	}
	t.dumped = true
	_ = t.Dump(t.sink, reason)
	return true
}
