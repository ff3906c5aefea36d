package control

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nwdeploy/internal/core"
	"nwdeploy/internal/hashing"
	"nwdeploy/internal/obs"
	"nwdeploy/internal/topology"
	"nwdeploy/internal/traffic"
)

func solvedPlan(t *testing.T, seed int64) (*core.Plan, []traffic.Session) {
	t.Helper()
	topo := topology.Internet2()
	tm := traffic.Gravity(topo)
	sessions := traffic.Generate(topo, tm, traffic.GenConfig{Sessions: 2500, Seed: seed})
	classes := []core.Class{
		{Name: "signature", Scope: core.PerPath, Agg: core.BySession, CPUPerPkt: 1, MemPerItem: 400},
		{Name: "http", Scope: core.PerPath, Agg: core.BySession, Ports: []uint16{80}, Transport: 6, CPUPerPkt: 2, MemPerItem: 600},
		{Name: "scan", Scope: core.PerIngress, Agg: core.BySource, CPUPerPkt: 0.3, MemPerItem: 120},
		{Name: "synflood", Scope: core.PerEgress, Agg: core.ByDestination, Transport: 6, CPUPerPkt: 0.2, MemPerItem: 60},
	}
	inst, err := core.BuildInstance(topo, classes, sessions, core.UniformCaps(topo.N(), 1e7, 1e9))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.Solve(inst, 1)
	if err != nil {
		t.Fatal(err)
	}
	return plan, sessions
}

func TestManifestRoundTripJSON(t *testing.T) {
	plan, _ := solvedPlan(t, 1)
	m, err := ManifestFromPlan(plan, 3, 7, 42)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back Manifest
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Node != 3 || back.Epoch != 7 || back.HashKey != 42 {
		t.Fatalf("header lost in round trip: %+v", back)
	}
	if len(back.Assignments) != len(m.Assignments) || len(back.Classes) != len(m.Classes) {
		t.Fatal("payload lost in round trip")
	}
}

func TestManifestFromPlanValidatesNode(t *testing.T) {
	plan, _ := solvedPlan(t, 1)
	if _, err := ManifestFromPlan(plan, 99, 1, 1); err == nil {
		t.Fatal("expected out-of-range error")
	}
}

// TestDeciderMatchesPlan: the wire-form decider must agree with the
// planner's own ShouldAnalyze on every (node, class, session) triple —
// the distributed data path enforces exactly the planned assignment.
func TestDeciderMatchesPlan(t *testing.T) {
	plan, sessions := solvedPlan(t, 2)
	const hashKey = 12345
	h := hashing.Hasher{Key: hashKey}
	for node := 0; node < plan.Inst.Topo.N(); node++ {
		m, err := ManifestFromPlan(plan, node, 1, hashKey)
		if err != nil {
			t.Fatal(err)
		}
		d := NewDecider(m)
		for _, s := range sessions[:600] {
			for ci := range plan.Inst.Classes {
				want := plan.ShouldAnalyze(node, ci, s, h)
				got := d.ShouldAnalyze(ci, s)
				if got != want {
					t.Fatalf("node %d class %d session %d: decider=%v plan=%v",
						node, ci, s.ID, got, want)
				}
			}
		}
	}
}

func TestDeciderRejectsUnknownClass(t *testing.T) {
	plan, sessions := solvedPlan(t, 3)
	m, err := ManifestFromPlan(plan, 0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDecider(m)
	if d.ShouldAnalyze(-1, sessions[0]) || d.ShouldAnalyze(99, sessions[0]) {
		t.Fatal("decider accepted out-of-range class")
	}
}

func TestControllerAgentEndToEnd(t *testing.T) {
	plan, sessions := solvedPlan(t, 4)
	ctrl, err := NewController("127.0.0.1:0", 777)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()

	agent := NewAgent(ctrl.Addr(), 5)

	// Before any plan: epoch 0, manifest fetch fails.
	if e, err := agent.RemoteEpoch(); err != nil || e != 0 {
		t.Fatalf("pre-plan epoch = %d, err %v", e, err)
	}
	if _, err := agent.Subscribe(SubscribeOptions{}); err == nil {
		t.Fatal("expected error fetching manifest before any plan")
	}

	ctrl.UpdatePlan(plan)
	sub, err := agent.Subscribe(SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if epoch := sub.Last().Epoch; epoch != 1 {
		t.Fatalf("epoch = %d, want 1", epoch)
	}
	d := agent.Decider()
	if d == nil || d.Epoch() != 1 {
		t.Fatal("decider not installed")
	}

	// Decisions over the wire match the plan.
	h := hashing.Hasher{Key: 777}
	for _, s := range sessions[:300] {
		for ci := range plan.Inst.Classes {
			if d.ShouldAnalyze(ci, s) != plan.ShouldAnalyze(5, ci, s, h) {
				t.Fatalf("wire decision diverged for session %d class %d", s.ID, ci)
			}
		}
	}

	// ModeIfStale: no-op at the same epoch, refetch after an update.
	ifStale := SubscribeOptions{Mode: ModeIfStale}
	if sub, err := agent.Subscribe(ifStale); err != nil || sub.Last().Changed {
		t.Fatalf("ModeIfStale at current epoch: fetched=%v err=%v", sub.Last().Changed, err)
	}
	ctrl.UpdatePlan(plan)
	if sub, err := agent.Subscribe(ifStale); err != nil || !sub.Last().Changed {
		t.Fatalf("ModeIfStale after update: fetched=%v err=%v", sub.Last().Changed, err)
	}
	if agent.Decider().Epoch() != 2 {
		t.Fatalf("decider epoch = %d, want 2", agent.Decider().Epoch())
	}
}

func TestControllerConcurrentAgents(t *testing.T) {
	plan, _ := solvedPlan(t, 5)
	ctrl, err := NewController("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	ctrl.UpdatePlan(plan)

	n := plan.Inst.Topo.N()
	var wg sync.WaitGroup
	errs := make(chan error, n*4)
	for round := 0; round < 4; round++ {
		for node := 0; node < n; node++ {
			wg.Add(1)
			go func(node int) {
				defer wg.Done()
				a := NewAgent(ctrl.Addr(), node)
				if _, err := a.Subscribe(SubscribeOptions{}); err != nil {
					errs <- err
				}
			}(node)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestControllerMalformedRequests(t *testing.T) {
	plan, _ := solvedPlan(t, 6)
	ctrl, err := NewController("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	ctrl.UpdatePlan(plan)

	// Unknown op.
	a := NewAgent(ctrl.Addr(), 0)
	if _, _, err := a.roundTrip(request{Op: "bogus"}); err == nil {
		t.Fatal("expected error for unknown op")
	}
	// Out-of-range node.
	bad := NewAgent(ctrl.Addr(), 10_000)
	if _, err := bad.Subscribe(SubscribeOptions{}); err == nil {
		t.Fatal("expected error for out-of-range node")
	}
	// Controller must still serve after bad requests.
	good := NewAgent(ctrl.Addr(), 0)
	if _, err := good.Subscribe(SubscribeOptions{}); err != nil {
		t.Fatalf("controller wedged after malformed traffic: %v", err)
	}
}

func TestAgentWatchDeliversEpochUpdates(t *testing.T) {
	plan, _ := solvedPlan(t, 7)
	ctrl, err := NewController("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	ctrl.UpdatePlan(plan)

	agent := NewAgent(ctrl.Addr(), 1)
	if _, err := agent.Subscribe(SubscribeOptions{}); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	sub, err := agent.Subscribe(SubscribeOptions{Mode: ModeWatch, Interval: 5 * time.Millisecond, Stop: stop})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	ctrl.UpdatePlan(plan) // epoch 2
	select {
	case u := <-sub.Updates():
		if u.Epoch != 2 {
			t.Fatalf("update epoch %d, want 2", u.Epoch)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no update delivered within 2s")
	}
	close(stop)
	// Channel closes after stop.
	for range sub.Updates() {
	}
}

// waitCounter polls an obs counter until it reaches at least want or the
// deadline passes — serve() runs on the controller's accept goroutines,
// so counter advances are asynchronous with the client's view.
func waitCounter(t *testing.T, c *obs.Counter, want int64) int64 {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if v := c.Value(); v >= want || time.Now().After(deadline) {
			return v
		}
		time.Sleep(time.Millisecond)
	}
}

// TestControllerErrorPathCounters drives every controller error path and
// asserts the badReqC/manifestErrC observability advances for each:
// unknown op, manifest before any plan, out-of-range node, a connection
// closed mid-request, and an oversized request line.
func TestControllerErrorPathCounters(t *testing.T) {
	metrics := obs.New()
	ctrl, err := NewControllerOpts("127.0.0.1:0", ControllerOptions{HashKey: 1, Metrics: metrics})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	badReqC := metrics.Counter("control.requests_bad")
	manifestErrC := metrics.Counter("control.manifest_errors")

	// Manifest request before any plan is installed.
	a := NewAgent(ctrl.Addr(), 0)
	if _, err := a.Subscribe(SubscribeOptions{}); err == nil {
		t.Fatal("expected error fetching manifest before any plan")
	}
	if got := waitCounter(t, manifestErrC, 1); got != 1 {
		t.Fatalf("manifest_errors = %d after no-plan fetch, want 1", got)
	}

	plan, _ := solvedPlan(t, 11)
	ctrl.UpdatePlan(plan)

	// Unknown op.
	if _, _, err := a.roundTrip(request{Op: "bogus"}); err == nil {
		t.Fatal("expected error for unknown op")
	}
	if got := waitCounter(t, badReqC, 1); got != 1 {
		t.Fatalf("requests_bad = %d after unknown op, want 1", got)
	}

	// Manifest request for an out-of-range node.
	if _, err := NewAgent(ctrl.Addr(), 10_000).Subscribe(SubscribeOptions{}); err == nil {
		t.Fatal("expected error for out-of-range node")
	}
	if got := waitCounter(t, manifestErrC, 2); got != 2 {
		t.Fatalf("manifest_errors = %d after out-of-range node, want 2", got)
	}

	// Connection closed mid-request: partial line, no newline.
	conn, err := net.Dial("tcp", ctrl.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte(`{"op":"ep`)); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if got := waitCounter(t, badReqC, 2); got != 2 {
		t.Fatalf("requests_bad = %d after mid-request close, want 2", got)
	}

	// The controller must still serve after all of the above.
	if _, err := NewAgent(ctrl.Addr(), 0).Subscribe(SubscribeOptions{}); err != nil {
		t.Fatalf("controller wedged after error-path traffic: %v", err)
	}
}

// TestControllerBoundsRequestLine streams a line longer than the request
// cap and expects a malformed-request rejection instead of unbounded
// buffering.
func TestControllerBoundsRequestLine(t *testing.T) {
	metrics := obs.New()
	ctrl, err := NewControllerOpts("127.0.0.1:0", ControllerOptions{HashKey: 1, Metrics: metrics})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()

	conn, err := net.Dial("tcp", ctrl.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	// One byte past the cap, no newline: the controller must stop
	// reading and reject rather than buffer on.
	junk := make([]byte, maxRequestLine+1)
	for i := range junk {
		junk[i] = 'a'
	}
	if _, err := conn.Write(junk); err != nil {
		t.Fatalf("writing oversized line: %v", err)
	}
	var resp response
	if err := json.NewDecoder(conn).Decode(&resp); err != nil {
		t.Fatalf("decoding rejection: %v", err)
	}
	if resp.Err != "malformed request" {
		t.Fatalf("resp.Err = %q, want %q", resp.Err, "malformed request")
	}
	if got := waitCounter(t, metrics.Counter("control.requests_bad"), 1); got != 1 {
		t.Fatalf("requests_bad = %d after oversized line, want 1", got)
	}
}

// TestAgentOptions: configured timeouts must be honored (a black-holed
// exchange fails in ~RPCTimeout, not the 10s default) and the agent-side
// counters must advance.
func TestAgentOptions(t *testing.T) {
	plan, _ := solvedPlan(t, 12)
	ctrl, err := NewController("127.0.0.1:0", 9)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	ctrl.UpdatePlan(plan)

	metrics := obs.New()
	blackhole := func(network, addr string, timeout time.Duration) (net.Conn, error) {
		client, server := net.Pipe()
		go func() {
			_, _ = io.Copy(io.Discard, server)
			_ = server.Close()
		}()
		return client, nil
	}
	a := NewAgentOpts(ctrl.Addr(), 0, AgentOptions{
		DialTimeout: 100 * time.Millisecond,
		RPCTimeout:  50 * time.Millisecond,
		Dial:        blackhole,
		Metrics:     metrics,
	})
	start := time.Now()
	if _, err := a.RemoteEpoch(); err == nil {
		t.Fatal("expected timeout through black-holed dialer")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("RPCTimeout not honored: exchange took %v", elapsed)
	}
	if got := metrics.Counter("control.agent_requests").Value(); got != 1 {
		t.Fatalf("agent_requests = %d, want 1", got)
	}
	if got := metrics.Counter("control.agent_errors").Value(); got != 1 {
		t.Fatalf("agent_errors = %d, want 1", got)
	}
	if got := metrics.Counter("control.agent_timeouts").Value(); got != 1 {
		t.Fatalf("agent_timeouts = %d, want 1", got)
	}

	// The same agent with a real dialer works and leaves timeouts alone.
	real := NewAgentOpts(ctrl.Addr(), 0, AgentOptions{Metrics: metrics})
	if _, err := real.Subscribe(SubscribeOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := metrics.Counter("control.agent_timeouts").Value(); got != 1 {
		t.Fatalf("agent_timeouts advanced on a healthy exchange: %d", got)
	}
}

// TestControllerServesProvidedListener: the Listener option must be used
// as-is — the seam chaos.Gate interposes at.
func TestControllerServesProvidedListener(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := NewControllerOpts("ignored:0", ControllerOptions{HashKey: 3, Listener: ln})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	if ctrl.Addr() != ln.Addr().String() {
		t.Fatalf("controller addr %s != provided listener addr %s", ctrl.Addr(), ln.Addr())
	}
	if e, err := NewAgent(ctrl.Addr(), 0).RemoteEpoch(); err != nil || e != 0 {
		t.Fatalf("epoch through provided listener: %d, %v", e, err)
	}
}

// failingListener returns an error from Accept, without touching the
// listener underneath, for as long as failing is set — a persistent accept
// error (EMFILE) — and delegates otherwise.
type failingListener struct {
	net.Listener
	failing atomic.Bool
	calls   atomic.Int64
}

func (l *failingListener) Accept() (net.Conn, error) {
	l.calls.Add(1)
	if l.failing.Load() {
		return nil, errors.New("accept: too many open files")
	}
	return l.Listener.Accept()
}

// TestControllerAcceptBackoff: a persistent Accept error must not spin the
// accept loop (it used to retry with no delay, a 100 %-CPU loop), a valid
// agent must still converge once the error clears, and the first success
// must reset the backoff to its 5 ms start.
func TestControllerAcceptBackoff(t *testing.T) {
	plan, _ := solvedPlan(t, 4)
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &failingListener{Listener: inner}
	ln.failing.Store(true)
	ctrl, err := NewControllerOpts("", ControllerOptions{HashKey: 3, Listener: ln})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	ctrl.UpdatePlan(plan)

	// 5 + 10 + 20 + 40 ms of backoff fit in the window: calls at 0, 5, 15,
	// 35 and 75 ms, so about five — against millions without a backoff.
	time.Sleep(100 * time.Millisecond)
	if n := ln.calls.Load(); n < 2 || n > 8 {
		t.Fatalf("%d Accept calls in 100 ms of persistent failure, want about 5", n)
	}

	// The error clears: the agent's connection waits in the kernel backlog
	// until the loop's next retry (80 or 160 ms away) accepts and serves it.
	ln.failing.Store(false)
	a := NewAgent(ctrl.Addr(), 2)
	if _, err := a.Subscribe(SubscribeOptions{}); err != nil {
		t.Fatalf("agent did not converge after the accept error cleared: %v", err)
	}
	if a.Decider() == nil || a.Decider().Epoch() != 1 {
		t.Fatal("decider not installed")
	}

	// The loop is now parked in the real Accept. Fail again and wake it
	// with one more (served) exchange: the backoff must restart at 5 ms —
	// three failed calls within 15 ms — not resume at 160 ms.
	ln.failing.Store(true)
	before := ln.calls.Load()
	if _, err := a.RemoteEpoch(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(100 * time.Millisecond)
	for ln.calls.Load() < before+3 {
		if time.Now().After(deadline) {
			t.Fatalf("%d Accept calls in 100 ms after a success, want >= 3: backoff was not reset",
				ln.calls.Load()-before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestControllerCloseIdempotent: a second Close used to panic on the
// already-closed channel.
func TestControllerCloseIdempotent(t *testing.T) {
	ctrl, err := NewController("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctrl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestDeciderCoverageHelpers: CoversUnit must agree with the manifest's
// wire ranges, and AssignedWidth with their total width.
func TestDeciderCoverageHelpers(t *testing.T) {
	plan, _ := solvedPlan(t, 13)
	m, err := ManifestFromPlan(plan, 2, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDecider(m)
	var want float64
	for _, a := range m.Assignments {
		for _, r := range a.Ranges {
			want += r.Hi - r.Lo
			mid := (r.Lo + r.Hi) / 2
			if !d.CoversUnit(a.Class, a.Unit, mid) {
				t.Fatalf("CoversUnit(%d, %v, %v) = false inside an assigned range", a.Class, a.Unit, mid)
			}
		}
	}
	if got := d.AssignedWidth(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("AssignedWidth = %v, want %v", got, want)
	}
	if d.CoversUnit(-1, [2]int{0, 0}, 0.5) {
		t.Fatal("CoversUnit accepted an unknown assignment")
	}
}
