package control

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"nwdeploy/internal/core"
	"nwdeploy/internal/hashing"
	"nwdeploy/internal/ledger"
	"nwdeploy/internal/obs"
	"nwdeploy/internal/telemetry"
)

// The protocol is one JSON request line and one response per exchange.
// Version 1 is one exchange per TCP connection: the controller answers with
// one JSON line carrying a full manifest and closes. Version 2 (the delta
// control plane's protocol) adds the "delta" op — the agent states the
// epoch it holds and receives only the changed ranges — and a negotiated
// compact binary response framing, and it holds the connection: after a
// successful v2 answer the controller reads the next request line on the
// same connection, and the agent reuses it for its next v2 exchange. The
// connection carries no session state beyond that; every request is
// self-contained. Every v2 request that an old controller cannot serve
// degrades to a v1 exchange, and every v1 request, malformed line and
// error reply is served exactly as before, byte for byte, then closed.

// ProtocolV2 is the versioned wire protocol introduced with the delta
// control plane. Requests carry it in "v"; responses echo it so agents can
// confirm the handshake. Version 0/absent is the original full-manifest
// JSON protocol.
const ProtocolV2 = 2

// EncBin is the request "enc" value selecting the compact binary response
// framing (v2 only). The empty value selects golden JSON.
const EncBin = "bin"

// request is the agent->controller message.
type request struct {
	Op   string `json:"op"`   // "epoch" | "manifest" | "delta" (v2)
	Node int    `json:"node"` // for "manifest" and "delta"
	// V is the sender's protocol version (omitted = v1); Enc selects the
	// response encoding ("" = JSON, "bin" = binary frame); Have is the
	// manifest epoch the agent holds, the delta base. All omitempty, so
	// v1 requests keep their historical byte encoding.
	V    int    `json:"v,omitempty"`
	Enc  string `json:"enc,omitempty"`
	Have uint64 `json:"have,omitempty"`
	// Trace is the caller's trace context (nil when untraced); omitempty
	// keeps the base request encoding stable for pre-trace controllers.
	Trace *WireTrace `json:"trace,omitempty"`
	// Stats is the node's piggybacked telemetry self-report (nil when the
	// fleet plane is off). Omitempty keeps v1 golden request lines
	// byte-stable, and agents suppress it entirely after a sticky legacy
	// downgrade so v1 controllers never see an unknown field grow the
	// request. Controllers that do not know the field ignore it (requests
	// are decoded with plain json.Unmarshal).
	Stats *telemetry.NodeStats `json:"stats,omitempty"`
}

// response is the controller->agent message.
type response struct {
	Epoch    uint64    `json:"epoch"`
	Manifest *Manifest `json:"manifest,omitempty"`
	// V and Delta are the v2 additions: the echoed protocol version and
	// the delta body of a "delta" answer. Omitempty keeps v1 responses
	// byte-identical to the pre-delta wire format.
	V     int        `json:"v,omitempty"`
	Delta *WireDelta `json:"delta,omitempty"`
	Err   string     `json:"err,omitempty"`
}

// ControllerOptions configures a Controller beyond its listen address.
type ControllerOptions struct {
	// HashKey is distributed to agents with each manifest, so the whole
	// deployment samples consistently and adversaries cannot predict
	// range membership without it.
	HashKey uint32
	// Metrics, when non-nil, receives serving observability: per-op
	// request counters, manifest build errors, plan-update counts, and a
	// current-epoch gauge. The registry must be supplied at construction
	// (it is read by the accept loop); nil is the no-op default.
	Metrics *obs.Registry
	// Listener, when non-nil, is served instead of opening a new TCP
	// listener (the addr argument is ignored). The controller takes
	// ownership and closes it on Close. This is the seam fault-injecting
	// wrappers such as chaos.Gate interpose at.
	Listener net.Listener
	// DeltaHistory is how many past configuration generations the
	// controller retains for serving deltas (0 selects 8; negative
	// disables delta serving — every "delta" request falls back to a full
	// manifest). An agent whose held epoch has aged out of the window
	// receives a full manifest, the documented epoch-gap fallback.
	DeltaHistory int
	// Ledger, when non-nil, receives a tamper-evident record of every
	// publish: UpdatePlan and PublishShed commit the full post-publish
	// canonical manifest set (off-chain, content-addressed) plus the live
	// shed state under a Merkle root chained to the run's ledger head.
	// Write-only like Metrics: serving behavior is identical with or
	// without it.
	Ledger *ledger.Ledger
	// Fleet, when non-nil, receives every piggybacked NodeStats report
	// carried on incoming requests. Write-only like Metrics and Ledger:
	// ingestion happens before the response is written (so a successful
	// exchange implies the report landed), but never changes what is
	// served.
	Fleet *telemetry.Fleet
}

// generation is one retained configuration snapshot: everything needed to
// rebuild the manifest any node was served at that epoch, so a delta from
// it to the present can be computed on demand. Entries are immutable once
// appended; serve goroutines read them without holding the lock.
type generation struct {
	epoch uint64
	plan  *core.Plan
	shed  map[int][]WireAssignment
	trace *WireTrace
}

// maxRequestLine bounds each request-line read. Real requests are tens of
// bytes; without a cap, a peer streaming bytes that never include a
// newline would grow the controller's read buffer without bound.
const maxRequestLine = 64 << 10

// idleTimeout bounds each request on a connection, re-armed as the
// controller starts reading the next one: it is the deadline of a one-shot
// v1 exchange and the idle timeout of a held v2 connection.
const idleTimeout = 10 * time.Second

// Controller serves the current deployment's manifests to node agents.
// Safe for concurrent use; UpdatePlan may be called while agents fetch.
type Controller struct {
	hashKey uint32
	histCap int
	ledger  *ledger.Ledger   // nil = no audit chain
	fleet   *telemetry.Fleet // nil = no fleet telemetry

	mu    sync.RWMutex
	plan  *core.Plan
	epoch uint64
	shed  map[int][]WireAssignment // per-node governor shed state
	trace *WireTrace               // context stamped on served manifests
	hist  []generation             // retained generations, oldest first

	ln        net.Listener
	wg        sync.WaitGroup
	closed    chan struct{}
	closeOnce sync.Once
	closeErr  error
	connMu    sync.Mutex
	conns     map[net.Conn]struct{} // open connections; nil once closed

	// Metric handles resolved at construction; nil-safe no-ops when no
	// registry was configured.
	epochReqC, manifestReqC, badReqC, manifestErrC, planUpdateC, shedUpdateC, tracedReqC *obs.Counter
	deltaReqC, deltaServedC, deltaFullC, statsReqC                                       *obs.Counter
	epochG                                                                               *obs.Gauge
}

// NewController starts a controller listening on addr (e.g.
// "127.0.0.1:0") with the given sampling hash key and no metrics; see
// NewControllerOpts for the full configuration surface.
func NewController(addr string, hashKey uint32) (*Controller, error) {
	return NewControllerOpts(addr, ControllerOptions{HashKey: hashKey})
}

// NewControllerOpts starts a controller listening on addr (e.g.
// "127.0.0.1:0").
func NewControllerOpts(addr string, opts ControllerOptions) (*Controller, error) {
	ln := opts.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", addr)
		if err != nil {
			return nil, fmt.Errorf("control: listen: %w", err)
		}
	}
	histCap := opts.DeltaHistory
	if histCap == 0 {
		histCap = 8
	}
	if histCap < 0 {
		histCap = 0
	}
	c := &Controller{
		hashKey: opts.HashKey, histCap: histCap,
		ledger: opts.Ledger, fleet: opts.Fleet,
		ln: ln, closed: make(chan struct{}), conns: make(map[net.Conn]struct{}),

		epochReqC:    opts.Metrics.Counter("control.requests_epoch"),
		manifestReqC: opts.Metrics.Counter("control.requests_manifest"),
		badReqC:      opts.Metrics.Counter("control.requests_bad"),
		manifestErrC: opts.Metrics.Counter("control.manifest_errors"),
		planUpdateC:  opts.Metrics.Counter("control.plan_updates"),
		shedUpdateC:  opts.Metrics.Counter("control.shed_updates"),
		tracedReqC:   opts.Metrics.Counter("control.requests_traced"),
		deltaReqC:    opts.Metrics.Counter("control.requests_delta"),
		statsReqC:    opts.Metrics.Counter("control.requests_stats"),
		deltaServedC: opts.Metrics.Counter("control.deltas_served"),
		deltaFullC:   opts.Metrics.Counter("control.delta_full_fallbacks"),
		epochG:       opts.Metrics.Gauge("control.epoch"),
	}
	c.wg.Add(1)
	go c.acceptLoop()
	return c, nil
}

// Addr returns the listening address agents should dial.
func (c *Controller) Addr() string { return c.ln.Addr().String() }

// Epoch returns the current configuration generation (0 = no plan yet).
func (c *Controller) Epoch() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.epoch
}

// UpdatePlan installs a new deployment plan and bumps the epoch; agents
// polling the epoch will observe the change and re-fetch. Any published
// shed state is cleared: a fresh plan supersedes the emergency degradation
// it was covering for. The controller keeps its own copy of the plan's
// manifests, so the caller may reuse or mutate them afterwards.
func (c *Controller) UpdatePlan(plan *core.Plan) {
	plan = ownManifests(plan)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.plan = plan
	c.shed = nil
	c.epoch++
	c.snapshotLocked()
	c.commitLocked(ledger.RecPublish)
	c.planUpdateC.Add(1)
	c.epochG.Set(float64(c.epoch))
}

// ownManifests returns a shallow copy of plan with its manifests' range
// sets copied: they are what a served manifest, and every delta diffed
// against a retained generation, is built from. The instance stays shared;
// nothing mutates it once built.
func ownManifests(plan *core.Plan) *core.Plan {
	own := *plan
	own.Manifests = make([]core.NodeManifest, len(plan.Manifests))
	for j, m := range plan.Manifests {
		own.Manifests[j] = core.NodeManifest{Node: m.Node, Ranges: make(map[int]hashing.RangeSet, len(m.Ranges))}
		for ui, rs := range m.Ranges {
			own.Manifests[j].Ranges[ui] = slices.Clone(rs)
		}
	}
	return &own
}

// snapshotLocked retains the just-published generation for delta serving,
// aging out the oldest entry past the history cap. Must be called with
// c.mu held after the epoch bump.
func (c *Controller) snapshotLocked() {
	if c.histCap <= 0 {
		return
	}
	shed := make(map[int][]WireAssignment, len(c.shed))
	for j, s := range c.shed {
		shed[j] = s
	}
	c.hist = append(c.hist, generation{epoch: c.epoch, plan: c.plan, shed: shed, trace: c.trace})
	if len(c.hist) > c.histCap {
		c.hist = append([]generation(nil), c.hist[len(c.hist)-c.histCap:]...)
	}
}

// SetTrace installs the trace context stamped on every manifest served
// from now on — callers set it just before UpdatePlan or PublishShed so
// the served generation carries the span of the publish that created it.
// Nil clears it. Serving stays deterministic: the context changes only
// when the (serial) epoch loop publishes, never per-request.
func (c *Controller) SetTrace(wt *WireTrace) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.trace = wt
}

// PublishShed records a node's governor shed state and bumps the epoch so
// agents re-fetch manifests carrying it. An empty shed clears the node's
// entry (the governor restored full responsibility). This is the fallback
// path when a replan misses its deadline: the network learns exactly which
// ranges the overloaded node dropped without waiting for a new plan.
func (c *Controller) PublishShed(node int, shed []WireAssignment) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(shed) == 0 {
		if _, had := c.shed[node]; !had {
			return // nothing published, nothing to clear: no epoch churn
		}
		delete(c.shed, node)
	} else {
		if c.shed == nil {
			c.shed = make(map[int][]WireAssignment)
		}
		c.shed[node] = shed
	}
	c.epoch++
	c.snapshotLocked()
	c.commitLocked(ledger.RecShed)
	c.shedUpdateC.Add(1)
	c.epochG.Set(float64(c.epoch))
}

// Close stops the listener, closes every open connection (held v2
// connections park in a read for up to the idle timeout) and waits for the
// accept loop and the connections' goroutines. It is idempotent: later
// calls wait the same way and return the first call's error.
func (c *Controller) Close() error {
	c.closeOnce.Do(func() {
		close(c.closed)
		c.closeErr = c.ln.Close()
		c.connMu.Lock()
		for conn := range c.conns {
			_ = conn.Close()
		}
		c.conns = nil
		c.connMu.Unlock()
	})
	c.wg.Wait()
	return c.closeErr
}

// track registers an accepted connection for Close; false means the
// controller is already closed and the connection must not be served.
func (c *Controller) track(conn net.Conn) bool {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	if c.conns == nil {
		return false
	}
	c.conns[conn] = struct{}{}
	return true
}

func (c *Controller) untrack(conn net.Conn) {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	delete(c.conns, conn)
}

// openConns reports how many accepted connections are still open.
func (c *Controller) openConns() int {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	return len(c.conns)
}

// Accept-error backoff: a persistent failure (EMFILE, say) must not turn
// the accept loop into a busy loop, and a transient one must not cost more
// than a few milliseconds of serving.
const (
	acceptBackoffMin = 5 * time.Millisecond
	acceptBackoffMax = time.Second
)

func (c *Controller) acceptLoop() {
	defer c.wg.Done()
	var backoff time.Duration // 0 = the last Accept succeeded
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			// Keep serving through accept errors, but wait before retrying:
			// 5 ms doubling to 1 s, reset by the first success. Close wakes
			// the wait.
			backoff *= 2
			if backoff < acceptBackoffMin {
				backoff = acceptBackoffMin
			} else if backoff > acceptBackoffMax {
				backoff = acceptBackoffMax
			}
			t := time.NewTimer(backoff)
			select {
			case <-c.closed:
				t.Stop()
				return
			case <-t.C:
			}
			continue
		}
		backoff = 0
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.serve(conn)
		}()
	}
}

// serve answers requests on one connection: a single one for v1, and for
// v2 one after another until the peer closes, a request fails, or the
// connection idles out.
func (c *Controller) serve(conn net.Conn) {
	defer conn.Close()
	if !c.track(conn) {
		return
	}
	defer c.untrack(conn)

	// Cap each request-line read: the limit, re-armed per request less the
	// bytes already read ahead, makes an overlong line surface as an EOF
	// one byte past the cap instead of an unbounded buffer. A peer that
	// closes mid-line (partial bytes, no newline) lands in the same error
	// path with a short line.
	lr := &io.LimitedReader{R: conn}
	r := bufio.NewReader(lr)
	enc := json.NewEncoder(conn)
	for {
		_ = conn.SetDeadline(time.Now().Add(idleTimeout))
		lr.N = maxRequestLine + 1 - int64(r.Buffered())
		line, err := r.ReadBytes('\n')
		if err != nil {
			if len(line) > maxRequestLine {
				c.badReqC.Add(1)
				_ = enc.Encode(response{Err: "malformed request"})
			} else if len(line) > 0 {
				// Connection closed mid-request; the peer is gone, so no
				// response — but the abandoned bytes still count as bad.
				c.badReqC.Add(1)
			}
			return
		}
		if !c.handle(conn, enc, line) {
			return
		}
	}
}

// handle answers one request line and reports whether the connection stays
// open for another: only after a v2 request answered without error.
func (c *Controller) handle(conn net.Conn, enc *json.Encoder, line []byte) bool {
	var req request
	if err := json.Unmarshal(line, &req); err != nil {
		c.badReqC.Add(1)
		_ = enc.Encode(response{Err: "malformed request"})
		return false
	}

	// Fold in the piggybacked telemetry report before any response bytes
	// are written: if the agent sees the exchange succeed, its report
	// landed. Write-only — nothing below reads the fleet back.
	if req.Stats != nil {
		c.statsReqC.Add(1)
		c.fleet.Report(*req.Stats)
	}
	if req.Trace != nil {
		c.tracedReqC.Add(1)
	}
	resp := c.answer(&req)

	// Complete the v2 handshake (echoing the protocol version) and honor
	// the negotiated encoding; v1 requests get the historical JSON line
	// byte for byte.
	var err error
	switch {
	case req.V < ProtocolV2:
		_ = enc.Encode(resp)
		return false
	case req.Enc == EncBin:
		resp.V = ProtocolV2
		_, err = conn.Write(frameBinary(encodeBinaryResponse(&resp)))
	default:
		resp.V = ProtocolV2
		err = enc.Encode(resp)
	}
	return err == nil && resp.Err == ""
}

// answer builds the response to one decoded request.
func (c *Controller) answer(req *request) response {
	c.mu.RLock()
	plan, epoch := c.plan, c.epoch
	shed := c.shed[req.Node]
	wt := c.trace
	hist := c.hist
	c.mu.RUnlock()

	// fullManifest answers with the node's current manifest, shared by the
	// "manifest" op and every delta fallback.
	fullManifest := func() response {
		m, err := ManifestFromPlan(plan, req.Node, epoch, c.hashKey)
		if err != nil {
			c.manifestErrC.Add(1)
			return response{Epoch: epoch, Err: err.Error()}
		}
		m.Shed = shed
		m.Trace = wt
		return response{Epoch: epoch, Manifest: m}
	}

	switch req.Op {
	case "epoch":
		c.epochReqC.Add(1)
		return response{Epoch: epoch}
	case "manifest":
		c.manifestReqC.Add(1)
		if plan == nil {
			c.manifestErrC.Add(1)
			return response{Epoch: epoch, Err: "no plan installed"}
		}
		return fullManifest()
	case "delta":
		c.deltaReqC.Add(1)
		if req.V < ProtocolV2 {
			c.badReqC.Add(1)
			return response{Epoch: epoch, Err: "op delta requires protocol v2"}
		}
		if plan == nil {
			c.manifestErrC.Add(1)
			return response{Epoch: epoch, Err: "no plan installed"}
		}
		if req.Have == epoch {
			// Up to date: the delta exchange doubles as the epoch probe.
			return response{Epoch: epoch}
		}
		if d := c.deltaFrom(hist, req.Have, req.Node, wt); d != nil {
			c.deltaServedC.Add(1)
			return response{Epoch: epoch, Delta: d}
		}
		// Epoch gap (base aged out of history), hash-key or class-table
		// change, or delta serving disabled: full-manifest fallback.
		c.deltaFullC.Add(1)
		return fullManifest()
	default:
		c.badReqC.Add(1)
		return response{Epoch: epoch, Err: fmt.Sprintf("unknown op %q", req.Op)}
	}
}

// deltaFrom computes the delta rewriting the manifest the node held at
// epoch have into the current one, or nil when it cannot (base epoch aged
// out of the retained window, class table or hash key changed). hist is an
// immutable snapshot; the current generation is its last entry.
func (c *Controller) deltaFrom(hist []generation, have uint64, node int, wt *WireTrace) *WireDelta {
	if len(hist) == 0 {
		return nil
	}
	var base *generation
	for i := range hist {
		if hist[i].epoch == have {
			base = &hist[i]
			break
		}
	}
	if base == nil {
		return nil
	}
	oldM, err := c.manifestFor(*base, node)
	if err != nil {
		return nil
	}
	newM, err := c.manifestFor(hist[len(hist)-1], node)
	if err != nil {
		return nil
	}
	newM.Trace = wt
	d, ok := DiffManifests(oldM, newM)
	if !ok {
		return nil
	}
	return d
}

// manifestFor rebuilds the manifest a node was served at a retained
// generation.
func (c *Controller) manifestFor(g generation, node int) (*Manifest, error) {
	m, err := ManifestFromPlan(g.plan, node, g.epoch, c.hashKey)
	if err != nil {
		return nil, err
	}
	m.Shed = g.shed[node]
	m.Trace = g.trace
	return m, nil
}

// DialFunc matches net.DialTimeout's shape: the transport seam fault
// injectors (internal/chaos) interpose at.
type DialFunc func(network, addr string, timeout time.Duration) (net.Conn, error)

// AgentOptions configures an Agent beyond its controller address and
// node identity. The zero value reproduces NewAgent's behavior.
type AgentOptions struct {
	// DialTimeout bounds connection establishment (0 selects 5s).
	DialTimeout time.Duration
	// RPCTimeout bounds the whole request/response exchange once
	// connected (0 selects 10s).
	RPCTimeout time.Duration
	// Dial replaces the transport dial (nil selects net.DialTimeout).
	Dial DialFunc
	// Metrics, when non-nil, receives client observability: request,
	// error, and timeout counters. Nil is the no-op default.
	Metrics *obs.Registry
}

// Agent protocol states, latched by the first v2 exchange.
const (
	protoUnknown int32 = iota // no v2 exchange attempted yet
	protoLegacy               // controller rejected v2; full JSON fetches only
	protoV2                   // controller confirmed v2
)

// heldIdleMax is how long an agent keeps an idle v2 connection: half the
// controller's idle timeout, so the agent never writes into a connection
// the controller is about to time out.
const heldIdleMax = idleTimeout / 2

// heldConn is an agent's open v2 connection to the controller.
type heldConn struct {
	conn net.Conn
	br   *bufio.Reader
	used time.Time // end of the last exchange on it
}

// Agent is a node's client to the controller. It caches the last fetched
// manifest and exposes a Decider for the data path. Refreshing goes
// through Subscribe. After a v2 exchange it holds the connection for the
// next one; Close releases it.
type Agent struct {
	addr string
	node int
	opts AgentOptions

	connMu sync.Mutex
	held   *heldConn // nil = the next exchange dials

	mu       sync.RWMutex
	decider  *Decider
	manifest *Manifest            // the installed manifest: the delta base
	trace    *WireTrace           // context attached to outgoing requests
	stats    *telemetry.NodeStats // telemetry report attached to requests
	proto    int32                // protoUnknown | protoLegacy | protoV2

	reqC, errC, timeoutC      *obs.Counter
	deltaC, fullC, downgradeC *obs.Counter
	rxBytesC                  *obs.Counter
}

// NewAgent creates an agent for node with default timeouts; it holds no
// connection until used. See NewAgentOpts for the full configuration
// surface.
func NewAgent(addr string, node int) *Agent {
	return NewAgentOpts(addr, node, AgentOptions{})
}

// NewAgentOpts creates an agent for node with explicit timeouts, dialer,
// and metrics.
func NewAgentOpts(addr string, node int, opts AgentOptions) *Agent {
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = 5 * time.Second
	}
	if opts.RPCTimeout <= 0 {
		opts.RPCTimeout = 10 * time.Second
	}
	if opts.Dial == nil {
		opts.Dial = net.DialTimeout
	}
	return &Agent{
		addr: addr, node: node, opts: opts,
		reqC:       opts.Metrics.Counter("control.agent_requests"),
		errC:       opts.Metrics.Counter("control.agent_errors"),
		timeoutC:   opts.Metrics.Counter("control.agent_timeouts"),
		deltaC:     opts.Metrics.Counter("control.agent_delta_syncs"),
		fullC:      opts.Metrics.Counter("control.agent_full_syncs"),
		downgradeC: opts.Metrics.Counter("control.agent_downgrades"),
		rxBytesC:   opts.Metrics.Counter("control.agent_rx_bytes"),
	}
}

// SetTrace installs the trace context attached to the agent's subsequent
// requests — the node's fetch span, set per epoch by the cluster runtime.
// Nil clears it; untraced agents send the pre-trace request encoding.
func (a *Agent) SetTrace(wt *WireTrace) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.trace = wt
}

// SetStats installs the telemetry self-report piggybacked on the agent's
// subsequent requests — set once per epoch by the cluster runtime, after
// it has collected the node's end-of-epoch state. Nil clears it. The
// report is suppressed after a sticky legacy downgrade, so v1 request
// lines stay byte-identical to the pre-telemetry encoding.
func (a *Agent) SetStats(s *telemetry.NodeStats) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.stats = s
}

// roundTrip sends one request and decodes one response, reporting the
// response payload size in bytes (the wire-cost figure the control-plane
// benchmark aggregates).
func (a *Agent) roundTrip(req request) (*response, int, error) {
	a.mu.RLock()
	req.Trace = a.trace
	if a.proto != protoLegacy {
		req.Stats = a.stats
	}
	a.mu.RUnlock()
	a.reqC.Add(1)
	resp, n, err := a.exchange(req)
	a.rxBytesC.Add(int64(n))
	if err != nil {
		a.errC.Add(1)
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			a.timeoutC.Add(1)
		}
	}
	return resp, n, err
}

// exchange runs one request/response on the held connection when the
// request is v2 and one is held, otherwise on a fresh dial. It keeps the
// connection only after an error-free answer that echoes v2. A failure on
// a held connection drops it and fails the exchange: a silent redial would
// be a second dial (and a second fault draw) for one exchange.
func (a *Agent) exchange(req request) (*response, int, error) {
	var hc *heldConn
	if req.V >= ProtocolV2 {
		hc = a.takeHeld()
	}
	if hc == nil {
		conn, err := a.opts.Dial("tcp", a.addr, a.opts.DialTimeout)
		if err != nil {
			return nil, 0, fmt.Errorf("control: dial %s: %w", a.addr, err)
		}
		hc = &heldConn{conn: conn, br: bufio.NewReader(conn)}
	}
	resp, n, err := a.converse(hc, req)
	if err != nil || resp.V < ProtocolV2 {
		_ = hc.conn.Close()
		return resp, n, err
	}
	hc.used = time.Now()
	if old := a.swapHeld(hc); old != nil {
		_ = old.conn.Close() // a concurrent exchange held one meanwhile
	}
	return resp, n, nil
}

// swapHeld makes hc the held connection and returns the one it replaces.
func (a *Agent) swapHeld(hc *heldConn) *heldConn {
	a.connMu.Lock()
	defer a.connMu.Unlock()
	old := a.held
	a.held = hc
	return old
}

// takeHeld removes and returns the held connection, or nil when none is
// held or it has idled past heldIdleMax.
func (a *Agent) takeHeld() *heldConn {
	hc := a.swapHeld(nil)
	if hc != nil && time.Since(hc.used) >= heldIdleMax {
		_ = hc.conn.Close()
		return nil
	}
	return hc
}

// Close releases the agent's held connection, if any. The agent stays
// usable; its next v2 exchange dials again.
func (a *Agent) Close() error {
	if hc := a.swapHeld(nil); hc != nil {
		return hc.conn.Close()
	}
	return nil
}

// converse writes one request on hc and reads its response.
func (a *Agent) converse(hc *heldConn, req request) (*response, int, error) {
	conn, br := hc.conn, hc.br
	_ = conn.SetDeadline(time.Now().Add(a.opts.RPCTimeout))

	enc := json.NewEncoder(conn)
	if err := enc.Encode(req); err != nil {
		return nil, 0, fmt.Errorf("control: send: %w", err)
	}
	if req.V >= ProtocolV2 && req.Enc == EncBin {
		// A binary frame starts with the high length byte, always 0x00;
		// a legacy JSON response (a controller that ignored the enc
		// field) starts with '{'. Peek to disambiguate.
		head, err := br.Peek(1)
		if err != nil {
			return nil, 0, fmt.Errorf("control: decode: %w", err)
		}
		if head[0] == 0 {
			return a.readBinaryResponse(br)
		}
	}
	var resp response
	cr := &countingReader{r: br}
	dec := json.NewDecoder(cr)
	if err := dec.Decode(&resp); err != nil {
		return nil, cr.n, fmt.Errorf("control: decode: %w", err)
	}
	if resp.Err != "" {
		return &resp, cr.n, errors.New("control: " + resp.Err)
	}
	if resp.V >= ProtocolV2 {
		// The connection will be held: consume the line's newline, which
		// the decoder may have left unread, so the next response starts
		// at its first byte. It is not counted, as on a one-shot exchange.
		var nl [1]byte
		if k, _ := dec.Buffered().Read(nl[:]); k == 0 {
			if b, err := br.ReadByte(); err != nil || b != '\n' {
				return nil, cr.n, errors.New("control: decode: response line not terminated")
			}
		}
	}
	return &resp, cr.n, nil
}

// readBinaryResponse consumes one length-framed binary response.
func (a *Agent) readBinaryResponse(br *bufio.Reader) (*response, int, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, 0, fmt.Errorf("control: decode: %w", err)
	}
	n := int(hdr[0])<<24 | int(hdr[1])<<16 | int(hdr[2])<<8 | int(hdr[3])
	if n > maxBinFrame {
		return nil, 4, fmt.Errorf("control: binary frame of %d bytes exceeds cap", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(br, payload); err != nil {
		return nil, 4, fmt.Errorf("control: decode: %w", err)
	}
	resp, err := decodeBinaryResponse(payload)
	if err != nil {
		return nil, 4 + n, err
	}
	if resp.Err != "" {
		return resp, 4 + n, errors.New("control: " + resp.Err)
	}
	return resp, 4 + n, nil
}

// countingReader counts bytes consumed by the JSON decoder.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// RemoteEpoch asks the controller for its current configuration epoch.
func (a *Agent) RemoteEpoch() (uint64, error) {
	resp, _, err := a.roundTrip(request{Op: "epoch"})
	if err != nil {
		return 0, err
	}
	return resp.Epoch, nil
}

// install publishes a fetched manifest to the data path.
func (a *Agent) install(m *Manifest) {
	d := NewDecider(m)
	a.mu.Lock()
	a.decider = d
	a.manifest = m
	a.mu.Unlock()
}

// Decider returns the currently installed decider (nil before the first
// successful subscription sync).
func (a *Agent) Decider() *Decider {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.decider
}

// Manifest returns the currently installed wire manifest (nil before the
// first successful sync) — the base the next delta applies to.
func (a *Agent) Manifest() *Manifest {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.manifest
}
