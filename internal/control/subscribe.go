package control

import (
	"errors"
	"strings"
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
	// Deltas negotiates protocol v2: refreshes state the held epoch and
	// receive only changed ranges, with automatic full-fetch fallback on
	// epoch gaps and transparent downgrade against v1 controllers.
	Deltas bool
	// Encoding selects the v2 response encoding (ignored for v1
	// exchanges).
	Encoding Encoding
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

// Subscription is the outcome of one Subscribe call, complete when
// Subscribe returns.
type Subscription struct {
	last Update
}

// Last returns the sync outcome.
func (s *Subscription) Last() Update { return s.last }

// Subscribe is the agent's one refresh surface: it performs one sync
// according to opts before returning. The returned error is that sync's
// error; the subscription records its outcome either way.
func (a *Agent) Subscribe(opts SubscribeOptions) (*Subscription, error) {
	u, err := a.syncOnce(opts)
	return &Subscription{last: u}, err
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
	if err := a.install(resp.Manifest); err != nil {
		return Update{Epoch: resp.Epoch, WireBytes: n}, err
	}
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
		if err := a.install(m); err != nil {
			return Update{Epoch: resp.Epoch, WireBytes: n}, err
		}
		a.deltaC.Add(1)
		return Update{Epoch: m.Epoch, Changed: true, WireBytes: n}, nil
	case resp.Manifest != nil:
		if err := a.install(resp.Manifest); err != nil {
			return Update{Epoch: resp.Epoch, WireBytes: n}, err
		}
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
