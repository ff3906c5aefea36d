package cluster

import (
	"errors"
	"net"
	"time"

	"nwdeploy/internal/bro"
	"nwdeploy/internal/chaos"
	"nwdeploy/internal/control"
	"nwdeploy/internal/telemetry"
	"nwdeploy/internal/trace"
	"nwdeploy/internal/traffic"
)

// RetryPolicy shapes an agent's manifest-fetch retry loop: exponential
// backoff with deterministic jitter, bounded attempts per epoch. The zero
// value selects the defaults noted on each field.
type RetryPolicy struct {
	// MaxAttempts bounds fetch attempts per epoch (0 selects 4).
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt (0 selects 10ms).
	BaseDelay time.Duration
	// MaxDelay caps the grown backoff (0 selects 500ms).
	MaxDelay time.Duration
	// Multiplier grows the backoff per attempt (0 selects 2).
	Multiplier float64
	// JitterFrac adds up to this fraction of the delay as seeded jitter,
	// decorrelating agents that fail in the same epoch. Jitter affects
	// wall time only, never which attempts happen, so it cannot perturb
	// a chaos run's report.
	JitterFrac float64
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 10 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 500 * time.Millisecond
	}
	if p.Multiplier <= 0 {
		p.Multiplier = 2
	}
	return p
}

// Backoff returns the delay before retry `attempt` (1-based: the wait
// after the attempt-th failure), with deterministic jitter drawn from
// (seed, draw).
func (p RetryPolicy) Backoff(attempt int, seed, draw int64) time.Duration {
	d := float64(p.BaseDelay)
	for i := 1; i < attempt; i++ {
		d *= p.Multiplier
		if d >= float64(p.MaxDelay) {
			d = float64(p.MaxDelay)
			break
		}
	}
	if d > float64(p.MaxDelay) {
		d = float64(p.MaxDelay)
	}
	if p.JitterFrac > 0 {
		d += d * p.JitterFrac * chaos.Uniform(seed, draw)
	}
	return time.Duration(d)
}

// epochTally is one agent's fetch accounting for the current epoch.
type epochTally struct {
	attempts, failures, timeouts int
	synced                       bool
}

// NodeAgent is one monitoring node of the in-process cluster: a resilient
// control-plane client (retrying manifest fetches through a possibly
// faulty network) plus the node's share of the traffic to analyze. All
// mutable state is touched only by the cluster's epoch loop — within an
// epoch, exactly one goroutine owns each agent.
type NodeAgent struct {
	node      int
	addr      string
	agentOpts control.AgentOptions
	sync      control.SubscribeOptions // per-sync mode/delta/encoding knobs
	retry     RetryPolicy
	grace     int
	jitter    int64 // seed for backoff jitter
	jitterN   int64 // jitter draw counter

	agent *control.Agent
	trace []traffic.Session

	down        bool
	staleEpochs int
	tally       epochTally
	// span is the agent's trace context for the current epoch (zero when
	// untraced), set by the cluster at the top of each fetch phase.
	span trace.Span

	// Telemetry inputs, written by the epoch loop regardless of whether a
	// fleet is attached (plain struct stores, read only by sampleFleet):
	// lastEngine is the node's most recent data-plane report, lastFloor
	// the governor's floor-limited verdict, lastStats the stats collected
	// at the last sampleFleet while the node was up — the drain farewell's
	// source.
	lastEngine bro.Report
	lastFloor  bool
	lastStats  telemetry.NodeStats
}

func newNodeAgent(node int, addr string, opts control.AgentOptions, sync control.SubscribeOptions, retry RetryPolicy, grace int, jitterSeed int64, trace []traffic.Session) *NodeAgent {
	sync.Mode = control.ModeIfStale
	a := &NodeAgent{
		node: node, addr: addr, agentOpts: opts, sync: sync,
		retry: retry.withDefaults(), grace: grace,
		jitter: jitterSeed, trace: trace,
	}
	a.restart()
	return a
}

// Decider returns the agent's installed wire decider (nil before the
// first successful fetch, and after a crash until re-sync).
func (a *NodeAgent) Decider() *control.Decider { return a.agent.Decider() }

// restart models a process (re)start: the control client is rebuilt, so
// any in-memory manifest state is lost and must be re-fetched, and the
// old client's held connection is closed — a crash loses its socket, so
// the first exchange after a restart dials. The fault stream behind
// agentOpts.Dial is deliberately preserved — faults belong to the node's
// network path, not to the process lifetime.
func (a *NodeAgent) restart() {
	if a.agent != nil {
		_ = a.agent.Close()
	}
	a.agent = control.NewAgentOpts(a.addr, a.node, a.agentOpts)
}

// Usable reports whether the agent can analyze traffic this epoch: alive,
// holding a manifest, and not stale beyond the grace window. The grace
// window is the paper's operational reality that a node keeps enforcing
// its last manifest between re-optimization rounds; beyond it the node
// goes dark rather than enforce an arbitrarily old assignment.
func (a *NodeAgent) Usable() bool {
	return !a.down && a.agent.Decider() != nil && a.staleEpochs <= a.grace
}

// syncWithRetry runs one epoch's fetch loop: up to MaxAttempts tries of
// an if-stale subscription sync with exponential, jittered backoff
// between them. It updates the epoch tally and the staleness counter.
// Every exchange draws exactly once from the agent's own fault stream,
// whether it dials or reuses the held connection, so the loop's
// outcome is a pure function of (chaos seed, node id, prior history)
// regardless of scheduling (see ScenarioConfig.Deltas for what that pins).
func (a *NodeAgent) syncWithRetry() {
	if a.span.Live() {
		// Attach the epoch's fetch context to the wire so the controller
		// can count traced requests; the manifest that comes back carries
		// the publish span this fetch stitches to.
		a.agent.SetTrace(&control.WireTrace{Trace: a.span.TraceHex(), Span: a.span.SpanHex()})
	}
	for attempt := 1; attempt <= a.retry.MaxAttempts; attempt++ {
		a.tally.attempts++
		_, err := a.agent.Subscribe(a.sync)
		if err == nil {
			a.tally.synced = true
			a.staleEpochs = 0
			attrs := []trace.Attr{trace.Int("attempt", attempt)}
			if d := a.agent.Decider(); d != nil {
				attrs = append(attrs, trace.Uint64("ctrl_epoch", d.Epoch()))
				if wt := d.TraceContext(); wt != nil {
					attrs = append(attrs, trace.Str("pub_span", wt.Span))
				}
			}
			a.span.Event(trace.EvFetchOK, attrs...)
			return
		}
		a.tally.failures++
		timeout := false
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			a.tally.timeouts++
			timeout = true
		}
		// Events classify the failure rather than carry err.Error(): error
		// strings embed the controller's ephemeral port, which would break
		// byte-identical dumps across runs.
		if attempt < a.retry.MaxAttempts {
			a.span.Event(trace.EvFetchRetry,
				trace.Int("attempt", attempt), trace.Str("err", errClass(timeout)))
			a.jitterN++
			time.Sleep(a.retry.Backoff(attempt, a.jitter, a.jitterN))
		} else {
			a.span.Event(trace.EvFetchFail,
				trace.Int("attempts", attempt), trace.Str("err", errClass(timeout)))
		}
	}
	a.staleEpochs++
}

// errClass names a fetch failure for trace attributes in a
// run-independent way.
func errClass(timeout bool) string {
	if timeout {
		return "timeout"
	}
	return "error"
}
