// Package chaos is a deterministic, seeded fault injector for the
// control-plane network: wrapped dialers that drop, delay, or black-hole
// connections on a seeded schedule, a gated listener modeling controller
// outage windows, and epoch-indexed node crash/restart schedules. Every
// decision derives from a single SplitMix64 seed via internal/parallel's
// seed splitting, so a chaos run replays bit-for-bit from one integer.
//
// # Determinism contract
//
// Fault decisions are drawn from per-consumer Streams, each seeded by
// splitting the injector seed with the consumer's identity (one stream
// per node agent). A stream's n-th draw is a pure function of (seed,
// consumer, n); since each agent draws only from its own stream, the
// fault sequence every agent observes is independent of goroutine
// scheduling. A Dialer draws exactly once per exchange, before any of the
// exchange's I/O: in Dial for an exchange that dials, and on the request
// write for each later exchange on a held connection. Whether an exchange
// dials or reuses a connection therefore never shifts the stream, but an
// extra write or a retry inside one exchange would move every later fault.
// Faults are injected on the client side rather than in the listener
// because concurrent agents race into a shared accept queue, so
// accept-order-keyed draws would vary run to run. The listener-side Gate
// is deterministic precisely because it is not draw-keyed — it is opened
// and closed at epoch boundaries by the cluster runtime, affecting every
// request in the window equally, on fresh and held connections alike.
package chaos

import (
	"errors"
	"io"
	"net"
	"sort"
	"sync/atomic"
	"time"

	"nwdeploy/internal/parallel"
)

// Fault is one injected connection-level failure mode.
type Fault int

const (
	// FaultNone lets the exchange proceed untouched.
	FaultNone Fault = iota
	// FaultError fails the dial, or the request write on a held
	// connection, immediately (connection refused / link down): the cheap
	// failure an agent can distinguish fast.
	FaultError
	// FaultBlackhole swallows the request and never delivers a response,
	// so the caller's I/O deadline expires: the expensive failure mode
	// that exercises per-attempt timeouts.
	FaultBlackhole
	// FaultDelay adds latency before the dial, or the request write on a
	// held connection, proceeds normally.
	FaultDelay
)

// String names the fault.
func (f Fault) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultError:
		return "error"
	case FaultBlackhole:
		return "blackhole"
	case FaultDelay:
		return "delay"
	}
	return "unknown"
}

// ErrInjected is the error a FaultError dial or request write returns.
var ErrInjected = errors.New("chaos: injected connection error")

// NetworkFaults sets the per-exchange fault mix. Probabilities are
// evaluated in order (drop, blackhole, delay) against one uniform draw,
// so their sum should not exceed 1.
type NetworkFaults struct {
	// DropProb is the probability an exchange fails immediately with
	// ErrInjected.
	DropProb float64
	// BlackholeProb is the probability an exchange's request goes into a
	// black hole that never answers (the caller times out).
	BlackholeProb float64
	// DelayProb is the probability an exchange is delayed by Delay before
	// proceeding normally.
	DelayProb float64
	// Delay is the added latency for FaultDelay (0 selects 2ms). It
	// affects wall time only, never outcomes.
	Delay time.Duration
}

// Uniform maps (seed, index) to a uniform [0, 1) float via the SplitMix64
// finalizer — the single primitive every chaos decision reduces to.
func Uniform(seed, index int64) float64 {
	return float64(uint64(parallel.SplitSeed(seed, index))>>11) / (1 << 53)
}

// Injector derives per-consumer fault streams from one seed.
type Injector struct {
	seed   int64
	faults NetworkFaults
}

// NewInjector builds an injector whose streams all use the given fault
// mix.
func NewInjector(seed int64, faults NetworkFaults) *Injector {
	return &Injector{seed: seed, faults: faults}
}

// Stream returns the deterministic fault stream for consumer id. Streams
// for distinct ids are statistically independent; calling Stream twice
// with the same id yields streams that replay the same sequence only if
// their draws are not interleaved, so each consumer should hold one.
func (in *Injector) Stream(id int) *Stream {
	return &Stream{seed: parallel.SplitSeed(in.seed, int64(id)), faults: in.faults}
}

// Stream is one consumer's fault sequence. The n-th call to Next returns
// a pure function of (injector seed, consumer id, n); the counter is
// atomic only so the race detector tolerates a consumer handing its
// stream between goroutines — concurrent draws from one stream would be
// schedule-dependent and are not part of the determinism contract.
type Stream struct {
	seed   int64
	faults NetworkFaults
	n      atomic.Int64
}

// Next draws the stream's next fault decision.
func (s *Stream) Next() Fault {
	k := s.n.Add(1) - 1
	u := Uniform(s.seed, k)
	f := s.faults
	switch {
	case u < f.DropProb:
		return FaultError
	case u < f.DropProb+f.BlackholeProb:
		return FaultBlackhole
	case u < f.DropProb+f.BlackholeProb+f.DelayProb:
		return FaultDelay
	}
	return FaultNone
}

// Draws reports how many decisions the stream has produced.
func (s *Stream) Draws() int64 { return s.n.Load() }

// delay is the FaultDelay latency.
func (s *Stream) delay() time.Duration {
	if s.faults.Delay <= 0 {
		return 2 * time.Millisecond
	}
	return s.faults.Delay
}

// DialFunc matches net.DialTimeout's shape — the seam both
// control.AgentOptions and this package's Dialer plug into.
type DialFunc func(network, addr string, timeout time.Duration) (net.Conn, error)

// Dialer interposes a fault stream in front of a real dial function. One
// fault decision is drawn per exchange: by Dial for the exchange that
// dials, and by the returned connection for each later request written on
// it (a held connection's next exchange). A caller must write each request
// with a single Write for the two to coincide.
type Dialer struct {
	// Stream supplies the per-exchange fault decisions.
	Stream *Stream
	// Next performs the real dial when the attempt survives injection
	// (nil selects net.DialTimeout).
	Next DialFunc
}

// Dial draws the next fault and applies it: FaultError fails without
// touching the network, FaultBlackhole returns a connection that
// swallows writes and never answers reads (the caller's deadline
// expires), FaultDelay sleeps before dialing normally. A dialed
// connection applies the same three faults to each request written on it
// after the first: FaultError fails the write, FaultBlackhole swallows it
// and leaves the read to time out at the caller's deadline, FaultDelay
// sleeps before the write.
func (d *Dialer) Dial(network, addr string, timeout time.Duration) (net.Conn, error) {
	next := d.Next
	if next == nil {
		next = net.DialTimeout
	}
	switch d.Stream.Next() {
	case FaultError:
		return nil, &net.OpError{Op: "dial", Net: network, Err: ErrInjected}
	case FaultBlackhole:
		return blackhole(), nil
	case FaultDelay:
		time.Sleep(d.Stream.delay())
	}
	conn, err := next(network, addr, timeout)
	if err != nil {
		return nil, err
	}
	return &faultConn{Conn: conn, stream: d.Stream}, nil
}

// blackhole returns a connection that swallows the request so the
// client's writes complete; the response never comes, so its read
// deadline fires.
func blackhole() net.Conn {
	client, server := net.Pipe()
	go func() {
		_, _ = io.Copy(io.Discard, server)
		_ = server.Close()
	}()
	return client
}

// faultConn is a dialed connection that draws one fault per request
// written after the first, whose fault the dial drew. It is used by one
// exchange at a time, so its fields need no lock.
type faultConn struct {
	net.Conn
	stream       *Stream
	written      bool      // the dialing exchange's request has been written
	readDeadline time.Time // carried over if the connection turns black hole
}

func (c *faultConn) Write(p []byte) (int, error) {
	if !c.written {
		c.written = true
		return c.Conn.Write(p)
	}
	switch c.stream.Next() {
	case FaultError:
		return 0, &net.OpError{Op: "write", Net: c.LocalAddr().Network(), Err: ErrInjected}
	case FaultBlackhole:
		// From here on the connection is a black hole: the real one is
		// closed before the request reaches it, and reads wait out the
		// caller's deadline.
		_ = c.Conn.Close()
		c.Conn = blackhole()
		_ = c.Conn.SetReadDeadline(c.readDeadline)
		return len(p), nil
	case FaultDelay:
		time.Sleep(c.stream.delay())
	}
	return c.Conn.Write(p)
}

func (c *faultConn) SetDeadline(t time.Time) error {
	c.readDeadline = t
	return c.Conn.SetDeadline(t)
}

func (c *faultConn) SetReadDeadline(t time.Time) error {
	c.readDeadline = t
	return c.Conn.SetReadDeadline(t)
}

// Gate wraps a listener with an on/off switch modeling controller outage
// windows: while closed, accepted connections are dropped immediately,
// and a request read on a connection accepted earlier (a held one) drops
// that connection, so peers see their exchange fail exactly as if the
// process behind the port had crashed (the address stays bound, which
// keeps ports stable across simulated restarts). Gate implements
// net.Listener.
type Gate struct {
	ln   net.Listener
	open atomic.Bool
}

// NewGate wraps ln, initially open.
func NewGate(ln net.Listener) *Gate {
	g := &Gate{ln: ln}
	g.open.Store(true)
	return g
}

// SetOpen opens (true) or closes (false) the gate.
func (g *Gate) SetOpen(open bool) { g.open.Store(open) }

// IsOpen reports the gate's current state.
func (g *Gate) IsOpen() bool { return g.open.Load() }

// Accept returns the next connection that arrives while the gate is
// open; connections arriving while closed are dropped on the floor. The
// returned connection stays subject to the gate: a read that delivers
// request bytes while the gate is closed closes it and reports EOF, so a
// held connection's peer sees the same non-timeout failure as a dropped
// accept.
func (g *Gate) Accept() (net.Conn, error) {
	for {
		conn, err := g.ln.Accept()
		if err != nil {
			return nil, err
		}
		if g.open.Load() {
			return &gatedConn{Conn: conn, g: g}, nil
		}
		_ = conn.Close()
	}
}

// gatedConn is a connection accepted through an open gate.
type gatedConn struct {
	net.Conn
	g *Gate
}

func (c *gatedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && !c.g.open.Load() {
		_ = c.Conn.Close()
		return 0, io.EOF
	}
	return n, err
}

// Close closes the underlying listener.
func (g *Gate) Close() error { return g.ln.Close() }

// Addr returns the underlying listener's address.
func (g *Gate) Addr() net.Addr { return g.ln.Addr() }

// EpochFaults is one epoch's environment: which nodes are crashed for
// the whole epoch and whether the controller is unreachable.
type EpochFaults struct {
	// DownNodes lists crashed nodes, ascending. A crashed node loses its
	// in-memory manifest state and must re-fetch after restart.
	DownNodes []int
	// ControllerDown closes the controller's gate for the epoch.
	ControllerDown bool
}

// Down reports whether node j is crashed this epoch.
func (f EpochFaults) Down(j int) bool {
	for _, d := range f.DownNodes {
		if d == j {
			return true
		}
	}
	return false
}

// Schedule is a full chaos run's epoch-indexed fault plan.
type Schedule struct {
	Seed   int64
	Epochs []EpochFaults
}

// ScheduleConfig parameterizes BuildSchedule.
type ScheduleConfig struct {
	// Epochs and Nodes size the schedule.
	Epochs, Nodes int
	// Seed makes the schedule reproducible.
	Seed int64
	// NodeFailProb is the per-(node, epoch) crash probability.
	NodeFailProb float64
	// MaxDown caps concurrently crashed nodes per epoch (0 = no cap);
	// set it to the provisioned redundancy minus one to stay within the
	// paper's Section 2.5 guarantee, or above it to probe degradation.
	MaxDown int
	// ControllerOutageProb is the per-epoch probability the controller
	// is unreachable.
	ControllerOutageProb float64
}

// BuildSchedule draws a deterministic fault schedule: the same config
// always yields the same schedule, independent of call site or timing.
func BuildSchedule(cfg ScheduleConfig) *Schedule {
	s := &Schedule{Seed: cfg.Seed, Epochs: make([]EpochFaults, cfg.Epochs)}
	for e := 0; e < cfg.Epochs; e++ {
		eseed := parallel.SplitSeed(cfg.Seed, int64(e))
		f := &s.Epochs[e]
		for j := 0; j < cfg.Nodes; j++ {
			if Uniform(eseed, int64(j)) >= cfg.NodeFailProb {
				continue
			}
			if cfg.MaxDown > 0 && len(f.DownNodes) >= cfg.MaxDown {
				continue
			}
			f.DownNodes = append(f.DownNodes, j)
		}
		sort.Ints(f.DownNodes)
		f.ControllerDown = Uniform(eseed, int64(cfg.Nodes)) < cfg.ControllerOutageProb
	}
	return s
}
