package control

import (
	"errors"
	"strings"
	"sync"
	"time"
)

// SubscribeMode selects how a subscription keeps the agent's manifest
// current.
type SubscribeMode int

const (
	// ModeOnce performs one unconditional refresh and completes. With the
	// zero options it is one full-manifest JSON exchange, the v1 protocol.
	ModeOnce SubscribeMode = iota
	// ModeIfStale refreshes only when the controller's epoch differs from
	// the installed one, then completes. Without Deltas that is the v1
	// exchange pair: an epoch probe, then a fetch if stale. With Deltas the
	// probe and the fetch collapse into one round trip: the delta request
	// states the held epoch, and an up-to-date agent gets a bodyless answer.
	ModeIfStale
	// ModeWatch runs a background poll loop at Interval until stopped.
	// Each installed generation is delivered through OnUpdate and the
	// Updates channel; transient errors retry next tick.
	ModeWatch
)

// Encoding selects the wire encoding of v2 responses.
type Encoding int

const (
	// EncodingJSON is the golden JSON line encoding (the default, and the
	// only one v1 controllers speak).
	EncodingJSON Encoding = iota
	// EncodingBinary negotiates the compact binary response framing. If
	// the controller predates it, the agent transparently downgrades.
	EncodingBinary
)

// SubscribeOptions configures Subscribe. The zero value is a one-shot
// full-manifest JSON fetch, wire-compatible with any controller.
type SubscribeOptions struct {
	// Mode is the refresh discipline (default ModeOnce).
	Mode SubscribeMode
	// Interval is the ModeWatch poll cadence (0 selects 1s).
	Interval time.Duration
	// Stop, when non-nil, ends a ModeWatch subscription when closed, in
	// addition to Subscription.Close.
	Stop <-chan struct{}
	// OnUpdate, when non-nil, is called synchronously (from the caller in
	// one-shot modes, from the poll goroutine in ModeWatch) for every
	// installed generation.
	OnUpdate func(Update)
	// Deltas negotiates protocol v2: refreshes state the held epoch and
	// receive only changed ranges, with automatic full-fetch fallback on
	// epoch gaps and transparent downgrade against v1 controllers.
	Deltas bool
	// Encoding selects the v2 response encoding (ignored for v1
	// exchanges).
	Encoding Encoding
	// Buffer is the Updates channel capacity (0 selects 4).
	Buffer int
}

// Update describes one installed manifest generation.
type Update struct {
	// Epoch is the generation now enforced.
	Epoch uint64
	// Changed reports whether this sync installed a new generation (a
	// ModeIfStale probe that found the agent current reports false).
	Changed bool
	// Full distinguishes a full-manifest install from an applied delta.
	Full bool
	// WireBytes is the response payload size — the per-sync wire cost the
	// control-plane benchmark sums into bytes/epoch.
	WireBytes int
}

// Subscription is a handle on a Subscribe call. One-shot modes complete
// before Subscribe returns; ModeWatch runs until Close (or the options'
// Stop channel) and joins the poll goroutine, so a closed subscription
// never leaks it.
type Subscription struct {
	agent *Agent
	opts  SubscribeOptions

	updates chan Update
	stop    chan struct{}
	done    chan struct{}
	once    sync.Once

	mu   sync.Mutex
	last Update
	err  error
}

// Updates delivers installed generations (only those that changed). The
// channel is closed when the subscription completes; slow consumers drop
// intermediate updates rather than stall the poll loop (the latest state
// is always observable via the agent's Decider).
func (s *Subscription) Updates() <-chan Update { return s.updates }

// Done is closed when the subscription has fully completed, poll
// goroutine included.
func (s *Subscription) Done() <-chan struct{} { return s.done }

// Last returns the most recent sync outcome.
func (s *Subscription) Last() Update {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.last
}

// Err returns the most recent sync error (nil after a clean sync).
func (s *Subscription) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close stops a ModeWatch subscription and blocks until its poll
// goroutine has exited; on one-shot subscriptions it is a no-op. Close is
// idempotent and safe to call concurrently.
func (s *Subscription) Close() {
	s.once.Do(func() { close(s.stop) })
	<-s.done
}

func (s *Subscription) record(u Update, err error) {
	s.mu.Lock()
	s.last, s.err = u, err
	s.mu.Unlock()
}

// Subscribe is the agent's one refresh surface. One-shot modes (ModeOnce,
// ModeIfStale) perform their sync before returning, and the returned
// subscription is already complete; ModeWatch returns immediately and
// polls in the background. The returned error is the one-shot sync error;
// watch-mode errors surface per tick via Err and retry.
func (a *Agent) Subscribe(opts SubscribeOptions) (*Subscription, error) {
	if opts.Interval <= 0 {
		opts.Interval = time.Second
	}
	if opts.Buffer <= 0 {
		opts.Buffer = 4
	}
	s := &Subscription{
		agent:   a,
		opts:    opts,
		updates: make(chan Update, opts.Buffer),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	switch opts.Mode {
	case ModeWatch:
		go s.watch()
		return s, nil
	default:
		defer close(s.done)
		defer close(s.updates)
		u, err := s.syncTick()
		if err != nil {
			return s, err
		}
		s.deliver(u)
		return s, nil
	}
}

// deliver publishes a changed update to the callback and channel.
func (s *Subscription) deliver(u Update) {
	if !u.Changed {
		return
	}
	if s.opts.OnUpdate != nil {
		s.opts.OnUpdate(u)
	}
	select {
	case s.updates <- u:
	default: // consumer lagging; state remains observable via Decider
	}
}

// watch is the ModeWatch poll loop. The ticker is always stopped and the
// channels always closed on exit, whichever stop signal fired — the
// goroutine-lifecycle contract TestWatchStopsPollGoroutine pins.
func (s *Subscription) watch() {
	defer close(s.done)
	defer close(s.updates)
	ticker := time.NewTicker(s.opts.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-s.opts.Stop:
			return
		case <-ticker.C:
			u, err := s.syncTick()
			s.record(u, err)
			if err == nil {
				s.deliver(u)
			}
		}
	}
}

// syncTick performs one refresh according to the subscription's options.
func (s *Subscription) syncTick() (Update, error) {
	u, err := s.agent.syncOnce(s.opts)
	s.record(u, err)
	return u, err
}

// syncOnce performs one refresh: a delta exchange when negotiated and
// possible, otherwise a full fetch. ModeIfStale without deltas probes the
// epoch first, the v1 probe-then-fetch wire behavior.
func (a *Agent) syncOnce(opts SubscribeOptions) (Update, error) {
	useDeltas := opts.Deltas && a.protoState() != protoLegacy
	if !useDeltas && opts.Mode == ModeIfStale {
		remote, err := a.RemoteEpoch()
		if err != nil {
			return Update{}, err
		}
		if d := a.Decider(); d != nil && d.Epoch() == remote {
			return Update{Epoch: remote}, nil
		}
	}
	if useDeltas {
		u, err := a.syncDelta(opts)
		if err == nil || !isVersionMismatch(err) {
			return u, err
		}
		// The controller predates v2: downgrade permanently and fall
		// through to the legacy full fetch.
		a.setProtoState(protoLegacy)
		a.downgradeC.Add(1)
	}
	return a.syncFull(opts)
}

// syncFull fetches and installs the node's complete manifest.
func (a *Agent) syncFull(opts SubscribeOptions) (Update, error) {
	req := request{Op: "manifest", Node: a.node}
	if opts.Deltas && a.protoState() != protoLegacy {
		req.V = ProtocolV2
		if opts.Encoding == EncodingBinary {
			req.Enc = EncBin
		}
	}
	resp, n, err := a.roundTrip(req)
	if err != nil {
		return Update{WireBytes: n}, err
	}
	if resp.Manifest == nil {
		return Update{Epoch: resp.Epoch, WireBytes: n}, errors.New("control: empty manifest in response")
	}
	if resp.V >= ProtocolV2 {
		a.setProtoState(protoV2)
	}
	a.install(resp.Manifest)
	a.fullC.Add(1)
	return Update{Epoch: resp.Manifest.Epoch, Changed: true, Full: true, WireBytes: n}, nil
}

// syncDelta runs one v2 delta exchange: state the held epoch, apply
// whatever comes back. A manifest answer is the controller's own fallback
// (epoch gap, class change); a bodyless answer means up to date. An apply
// failure (gap the controller missed) retries as a full fetch.
func (a *Agent) syncDelta(opts SubscribeOptions) (Update, error) {
	req := request{Op: "delta", Node: a.node, V: ProtocolV2}
	if opts.Encoding == EncodingBinary {
		req.Enc = EncBin
	}
	base := a.Manifest()
	if base != nil {
		req.Have = base.Epoch
	}
	resp, n, err := a.roundTrip(req)
	if err != nil {
		return Update{WireBytes: n}, err
	}
	a.setProtoState(protoV2)
	switch {
	case resp.Delta != nil:
		m, err := ApplyDelta(base, resp.Delta)
		if err != nil {
			// Base mismatch: resynchronize with a full fetch.
			u, ferr := a.syncFull(opts)
			u.WireBytes += n
			return u, ferr
		}
		a.install(m)
		a.deltaC.Add(1)
		return Update{Epoch: m.Epoch, Changed: true, WireBytes: n}, nil
	case resp.Manifest != nil:
		a.install(resp.Manifest)
		a.fullC.Add(1)
		return Update{Epoch: resp.Manifest.Epoch, Changed: true, Full: true, WireBytes: n}, nil
	default:
		// Up to date.
		return Update{Epoch: resp.Epoch, WireBytes: n}, nil
	}
}

func (a *Agent) protoState() int32 {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.proto
}

func (a *Agent) setProtoState(p int32) {
	a.mu.Lock()
	if p > a.proto || a.proto == protoUnknown {
		a.proto = p
	}
	a.mu.Unlock()
}

// isVersionMismatch recognizes a v1 controller's rejection of a v2-only
// op — the signal to downgrade to full-manifest fetches.
func isVersionMismatch(err error) bool {
	return err != nil && strings.Contains(err.Error(), "unknown op")
}
