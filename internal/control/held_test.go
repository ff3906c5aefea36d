package control

import (
	"bufio"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nwdeploy/internal/chaos"
)

// countingListener counts the connections the controller accepts.
type countingListener struct {
	net.Listener
	accepts atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err == nil {
		l.accepts.Add(1)
	}
	return conn, err
}

// startCounted starts a controller with plan installed behind a counting
// listener wrapped around wrap(the TCP listener).
func startCounted(t *testing.T, wrap func(net.Listener) net.Listener) (*Controller, *countingListener) {
	t.Helper()
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &countingListener{Listener: wrap(inner)}
	ctrl, err := NewControllerOpts("", ControllerOptions{HashKey: 3, Listener: ln})
	if err != nil {
		t.Fatal(err)
	}
	plan, _ := solvedPlan(t, 8)
	ctrl.UpdatePlan(plan)
	return ctrl, ln
}

func sameListener(ln net.Listener) net.Listener { return ln }

var deltaSync = SubscribeOptions{Mode: ModeIfStale, Deltas: true, Encoding: EncodingBinary}

// waitFor polls cond for up to 2 s: the controller's side of a connection
// closes asynchronously with the agent's.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHeldConnectionReused: one agent's v2 syncs share one connection,
// whatever they carry (a full manifest, a delta, an up-to-date answer);
// v1 syncs dial every time, and the controller closes a v1 connection
// after one response even when a second request line is already waiting.
func TestHeldConnectionReused(t *testing.T) {
	ctrl, ln := startCounted(t, sameListener)
	defer ctrl.Close()
	plan, _ := solvedPlan(t, 9)

	const n = 6
	a := NewAgent(ctrl.Addr(), 4)
	defer a.Close()
	for i := 0; i < n; i++ {
		if i%2 == 1 {
			ctrl.UpdatePlan(plan)
		}
		if _, err := a.Subscribe(deltaSync); err != nil {
			t.Fatalf("v2 sync %d: %v", i, err)
		}
	}
	if got := a.Decider().Epoch(); got != ctrl.Epoch() {
		t.Fatalf("agent at epoch %d, controller at %d", got, ctrl.Epoch())
	}
	if got := ln.accepts.Load(); got != 1 {
		t.Fatalf("%d v2 syncs cost %d accepts, want 1", n, got)
	}

	// A connection idle for heldIdleMax is dropped before reuse.
	a.held.used = time.Now().Add(-heldIdleMax)
	if _, err := a.Subscribe(deltaSync); err != nil {
		t.Fatal(err)
	}
	if got := ln.accepts.Load(); got != 2 {
		t.Fatalf("accepts = %d after an idled-out connection, want 2", got)
	}

	v1 := NewAgent(ctrl.Addr(), 4)
	for i := 0; i < n; i++ {
		if _, err := v1.Subscribe(SubscribeOptions{}); err != nil {
			t.Fatalf("v1 sync %d: %v", i, err)
		}
	}
	if got := ln.accepts.Load(); got != 2+n {
		t.Fatalf("%d v1 syncs cost %d accepts, want %d", n, got-2, n)
	}

	// Two request lines in one write. v1: one response, then EOF. v2: two
	// responses, and the connection still answers a third line.
	for _, tc := range []struct {
		line string
		v2   bool
	}{
		{`{"op":"epoch"}`, false},
		{`{"op":"epoch","v":2}`, true},
	} {
		conn, err := net.Dial("tcp", ctrl.Addr())
		if err != nil {
			t.Fatal(err)
		}
		_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Write([]byte(tc.line + "\n" + tc.line + "\n")); err != nil {
			t.Fatal(err)
		}
		br := bufio.NewReader(conn)
		if _, err := br.ReadBytes('\n'); err != nil {
			t.Fatalf("%s: first response: %v", tc.line, err)
		}
		if !tc.v2 {
			if _, err := br.ReadByte(); err != io.EOF {
				t.Fatalf("%s: second line got %v, want EOF", tc.line, err)
			}
		} else {
			if _, err := conn.Write([]byte(tc.line + "\n")); err != nil {
				t.Fatal(err)
			}
			for i := 2; i <= 3; i++ {
				if _, err := br.ReadBytes('\n'); err != nil {
					t.Fatalf("%s: response %d: %v", tc.line, i, err)
				}
			}
		}
		conn.Close()
	}
}

// TestHeldConnectionSplitNewline: when a JSON response's newline arrives
// in a later write than its closing brace, the agent must read up to it, or
// the next response on the held connection — here a binary frame — would
// start with a stray byte.
func TestHeldConnectionSplitNewline(t *testing.T) {
	client, server := net.Pipe()
	dials := 0
	dial := func(string, string, time.Duration) (net.Conn, error) {
		if dials++; dials > 1 {
			return nil, errors.New("redialed: the connection was not held")
		}
		return client, nil
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer server.Close()
		br := bufio.NewReader(server)
		if _, err := br.ReadBytes('\n'); err != nil {
			return
		}
		_, _ = server.Write([]byte(`{"epoch":1,"v":2}`))
		_, _ = server.Write([]byte("\n"))
		if _, err := br.ReadBytes('\n'); err != nil {
			return
		}
		_, _ = server.Write(appendBinaryResponse(nil, &response{Epoch: 1, V: ProtocolV2}))
	}()
	a := NewAgentOpts("pipe", 0, AgentOptions{Dial: dial, RPCTimeout: 2 * time.Second})
	for _, enc := range []string{"", EncBin} {
		resp, _, err := a.exchange(request{Op: "epoch", V: ProtocolV2, Enc: enc})
		if err != nil {
			t.Fatalf("enc %q: %v", enc, err)
		}
		if resp.Epoch != 1 {
			t.Fatalf("enc %q: epoch %d, want 1", enc, resp.Epoch)
		}
	}
	a.Close()
	<-done
}

// TestHeldConnectionStrayByte: a controller that writes one byte past a v2
// binary answer has put the connection out of step, since the protocol
// sends one response per request. The agent must fail that exchange and
// drop the connection instead of holding it; its next exchange dials again
// and succeeds.
func TestHeldConnectionStrayByte(t *testing.T) {
	ctrl, ln := startCounted(t, sameListener)
	defer ctrl.Close()

	client, server := net.Pipe()
	dials := 0
	dial := func(network, _ string, timeout time.Duration) (net.Conn, error) {
		if dials++; dials == 1 {
			return client, nil
		}
		return net.DialTimeout(network, ctrl.Addr(), timeout)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer server.Close()
		if _, err := bufio.NewReader(server).ReadBytes('\n'); err != nil {
			return
		}
		frame := appendBinaryResponse(nil, &response{Epoch: 1, V: ProtocolV2})
		_, _ = server.Write(append(frame, 0))
	}()
	a := NewAgentOpts("pipe", 2, AgentOptions{Dial: dial, RPCTimeout: 2 * time.Second})
	defer a.Close()
	req := request{Op: "epoch", V: ProtocolV2, Enc: EncBin}
	if _, _, err := a.exchange(req); !errors.Is(err, errTrailingBytes) {
		t.Fatalf("answer with a stray byte: err = %v, want %v", err, errTrailingBytes)
	}
	if a.held != nil {
		t.Fatal("the agent holds the connection the stray byte arrived on")
	}
	<-done
	resp, _, err := a.exchange(req)
	if err != nil {
		t.Fatalf("exchange after the stray byte: %v", err)
	}
	if resp.Epoch != ctrl.Epoch() || dials != 2 || ln.accepts.Load() != 1 {
		t.Fatalf("epoch %d (controller %d), %d dials, %d accepts: want the controller's epoch over a second dial",
			resp.Epoch, ctrl.Epoch(), dials, ln.accepts.Load())
	}
}

// TestOneFaultDrawPerExchange: a chaos dialer draws exactly once per
// exchange, on fresh dials and on held reuse alike, and each exchange's
// outcome is the fault its draw names — replayed here from a twin stream.
func TestOneFaultDrawPerExchange(t *testing.T) {
	ctrl, ln := startCounted(t, sameListener)
	defer ctrl.Close()

	faults := chaos.NetworkFaults{DropProb: 0.2, BlackholeProb: 0.1}
	in := chaos.NewInjector(5, faults)
	stream, twin := in.Stream(2), in.Stream(2)
	d := &chaos.Dialer{Stream: stream}
	a := NewAgentOpts(ctrl.Addr(), 2, AgentOptions{
		DialTimeout: time.Second, RPCTimeout: 150 * time.Millisecond, Dial: d.Dial,
	})
	defer a.Close()

	const exchanges = 60
	seen := map[chaos.Fault]int{}
	for i := 0; i < exchanges; i++ {
		f := twin.Next()
		seen[f]++
		_, err := a.Subscribe(deltaSync)
		var ne net.Error
		timeout := errors.As(err, &ne) && ne.Timeout()
		switch f {
		case chaos.FaultError:
			if err == nil || timeout {
				t.Fatalf("exchange %d drew %v: err = %v, want a non-timeout failure", i, f, err)
			}
		case chaos.FaultBlackhole:
			if !timeout {
				t.Fatalf("exchange %d drew %v: err = %v, want a timeout", i, f, err)
			}
		default:
			if err != nil {
				t.Fatalf("exchange %d drew %v: %v", i, f, err)
			}
		}
		if got := stream.Draws(); got != int64(i+1) {
			t.Fatalf("after %d exchanges the stream drew %d times", i+1, got)
		}
	}
	for _, f := range []chaos.Fault{chaos.FaultNone, chaos.FaultError, chaos.FaultBlackhole} {
		if seen[f] == 0 {
			t.Fatalf("no exchange drew %v; the seed exercises too little", f)
		}
	}
	// Every failure drops the connection, so the next exchange dials; the
	// rest reuse it.
	failed := seen[chaos.FaultError] + seen[chaos.FaultBlackhole]
	if got := ln.accepts.Load(); got > int64(1+failed) {
		t.Fatalf("%d accepts for %d exchanges, %d of them failed: held connections were not reused", got, exchanges, failed)
	}
}

// TestGateClosesHeldConnections: closing the gate fails the next exchange
// on a held connection with a non-timeout error, as a dropped accept
// does; after the gate reopens the agent dials afresh and succeeds.
func TestGateClosesHeldConnections(t *testing.T) {
	var gate *chaos.Gate
	ctrl, ln := startCounted(t, func(inner net.Listener) net.Listener {
		gate = chaos.NewGate(inner)
		return gate
	})
	defer ctrl.Close()

	a := NewAgentOpts(ctrl.Addr(), 1, AgentOptions{RPCTimeout: 2 * time.Second})
	defer a.Close()
	if _, err := a.Subscribe(deltaSync); err != nil {
		t.Fatal(err)
	}
	gate.SetOpen(false)
	_, err := a.Subscribe(deltaSync)
	var ne net.Error
	if err == nil || (errors.As(err, &ne) && ne.Timeout()) {
		t.Fatalf("exchange through a closed gate: err = %v, want a non-timeout failure", err)
	}
	if got := ln.accepts.Load(); got != 1 {
		t.Fatalf("accepts = %d, want 1: the failed exchange should have used the held connection", got)
	}
	waitFor(t, "the gated connection to close", func() bool { return ctrl.openConns() == 0 })

	gate.SetOpen(true)
	if _, err := a.Subscribe(deltaSync); err != nil {
		t.Fatalf("exchange after the gate reopened: %v", err)
	}
	if got := ln.accepts.Load(); got != 2 {
		t.Fatalf("accepts = %d, want 2: the agent should have dialed afresh", got)
	}
}

// TestConcurrentExchangesOneAgent: exchanges racing on one agent each get
// a connection — the held one or a fresh dial — and when they are done the
// agent holds exactly one; the others were closed as they were returned.
func TestConcurrentExchangesOneAgent(t *testing.T) {
	ctrl, _ := startCounted(t, sameListener)
	defer ctrl.Close()

	a := NewAgent(ctrl.Addr(), 6)
	defer a.Close()
	const workers, each = 4, 10
	errs := make(chan error, workers*each)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := a.Subscribe(deltaSync); err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	waitFor(t, "one held connection", func() bool { return ctrl.openConns() == 1 })
}

// TestAgentCloseReleasesConnection: Agent.Close frees the controller's
// side of the held connection, and Controller.Close does not wait out the
// idle timeout of connections agents still hold.
func TestAgentCloseReleasesConnection(t *testing.T) {
	ctrl, _ := startCounted(t, sameListener)
	defer ctrl.Close()

	a, b := NewAgent(ctrl.Addr(), 0), NewAgent(ctrl.Addr(), 1)
	defer b.Close()
	for _, ag := range []*Agent{a, b} {
		if _, err := ag.Subscribe(deltaSync); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "two held connections", func() bool { return ctrl.openConns() == 2 })
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the closed agent's connection to go", func() bool { return ctrl.openConns() == 1 })

	start := time.Now()
	if err := ctrl.Close(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > idleTimeout/4 {
		t.Fatalf("Close took %v with a held connection open", took)
	}
}

// openConns reports how many accepted connections are still open.
func (c *Controller) openConns() int {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	return len(c.conns)
}
