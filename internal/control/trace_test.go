package control

import (
	"testing"

	"nwdeploy/internal/obs"
)

// TestTraceContextPropagatesOverWire exercises the stitch the tracing
// layer relies on: the controller stamps its publish context on served
// manifests, the agent's decider surfaces it, and traced agent requests
// are counted server-side — all over the real loopback protocol.
func TestTraceContextPropagatesOverWire(t *testing.T) {
	plan, _ := solvedPlan(t, 6)
	reg := obs.New()
	ctrl, err := NewControllerOpts("127.0.0.1:0", ControllerOptions{HashKey: 9, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	agent := NewAgent(ctrl.Addr(), 0)

	// Untraced publish: manifests carry no context.
	ctrl.UpdatePlan(plan)
	if _, err := agent.Subscribe(SubscribeOptions{}); err != nil {
		t.Fatal(err)
	}
	if wt := agent.Decider().TraceContext(); wt != nil {
		t.Fatalf("untraced publish produced trace context %+v", wt)
	}

	// Traced publish: the exact (trace, span) pair crosses the wire.
	pub := &WireTrace{Trace: "0000000000000001", Span: "0000000000000002"}
	ctrl.SetTrace(pub)
	ctrl.UpdatePlan(plan)
	agent.SetTrace(&WireTrace{Trace: "0000000000000001", Span: "0000000000000003"})
	if _, err := agent.Subscribe(SubscribeOptions{}); err != nil {
		t.Fatal(err)
	}
	got := agent.Decider().TraceContext()
	if got == nil || *got != *pub {
		t.Fatalf("trace context = %+v, want %+v", got, pub)
	}

	snap := reg.Snapshot()
	if n := snap.Counters["control.requests_traced"]; n != 1 {
		t.Fatalf("control.requests_traced = %d, want 1 (one traced Sync)", n)
	}

	// Clearing both sides restores the pre-trace encoding behavior.
	ctrl.SetTrace(nil)
	ctrl.UpdatePlan(plan)
	agent.SetTrace(nil)
	if _, err := agent.Subscribe(SubscribeOptions{}); err != nil {
		t.Fatal(err)
	}
	if wt := agent.Decider().TraceContext(); wt != nil {
		t.Fatalf("cleared trace still served context %+v", wt)
	}
	if n := reg.Snapshot().Counters["control.requests_traced"]; n != 1 {
		t.Fatal("untraced request counted as traced")
	}
}
