package nwdeploy

import (
	"reflect"
	"testing"
	"time"

	"nwdeploy/internal/chaos"
	"nwdeploy/internal/cluster"
	"nwdeploy/internal/control"
	"nwdeploy/internal/trace"
)

// The observability contract of the public surface: a live Metrics
// registry is write-only instrumentation, so every planner must return
// byte-identical results with and without one. These tests are the
// acceptance gate for any new instrumentation — if a counter ever leaks
// into a returned struct through a non-deterministic path (wall time,
// scheduling), they fail.

func nidsTestInstance(t *testing.T) *NIDSInstance {
	t.Helper()
	topo := Internet2()
	tm := GravityMatrix(topo)
	sessions := GenerateSessions(topo, tm, 3000, 13)
	classes := []Class{
		{Name: "signature", CPUPerPkt: 1, MemPerItem: 400},
		{Name: "http", Ports: []uint16{80}, CPUPerPkt: 2, MemPerItem: 600},
	}
	inst, err := BuildNIDSInstance(topo, classes, sessions, UniformCaps(topo.N(), 1e7, 1e9))
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestPlanNIDSMetricsNonInterference(t *testing.T) {
	inst := nidsTestInstance(t)
	plain, err := PlanNIDS(inst, NIDSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m := NewMetrics()
	live, err := PlanNIDS(inst, NIDSOptions{Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, live) {
		t.Fatal("live registry changed the NIDS plan")
	}
	if m.Counter("lp.solves").Value() == 0 {
		t.Fatal("registry recorded no LP solves; instrumentation dead")
	}
	if plain.Stats.Phase1Iters+plain.Stats.Phase2Iters == 0 {
		t.Fatal("plan carries no solver stats")
	}

	// The aggregation path must honor the same contract.
	agg := AggregationConfig{Collector: 6, BytesPerItem: 64, Budget: 1e18}
	plainAgg, err := PlanNIDS(inst, NIDSOptions{Aggregation: &agg})
	if err != nil {
		t.Fatal(err)
	}
	liveAgg, err := PlanNIDS(inst, NIDSOptions{Aggregation: &agg, Metrics: NewMetrics()})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plainAgg, liveAgg) {
		t.Fatal("live registry changed the aggregation-budgeted plan")
	}
}

func TestPlanNIPSMetricsNonInterference(t *testing.T) {
	inst := BuildNIPSInstance(Geant(), UnitRules(10), NIPSConfig{
		MaxPaths:             10,
		RuleCapacityFraction: 0.2,
		MatchSeed:            5,
	})
	opts := NIPSOptions{Variant: NIPSRoundingGreedyLP, Iters: 3, Seed: 11}
	plain, err := PlanNIPS(inst, opts)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMetrics()
	opts.Metrics = m
	live, err := PlanNIPS(inst, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, live) {
		t.Fatal("live registry changed the NIPS result")
	}
	if m.Counter("nips.round_trials").Value() == 0 {
		t.Fatal("registry recorded no rounding trials; instrumentation dead")
	}

	// The same seed must also survive a Workers change with metrics on.
	opts.Workers = 4
	opts.Metrics = NewMetrics()
	parallel, err := PlanNIPS(inst, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, parallel) {
		t.Fatal("parallel instrumented run diverged from the serial plain run")
	}
}

// TestTracerNonInterference extends the write-only contract to the trace
// layer: a live flight recorder threaded through the cluster runtime must
// not change a single field of the reports — the plans published, the
// per-epoch coverage, the watchdog's view of the world — while still
// recording the run.
func TestTracerNonInterference(t *testing.T) {
	run := func(tr *trace.Tracer) *cluster.ChaosReport {
		rep, err := cluster.CoverageUnderChaos(cluster.ChaosConfig{
			Sessions: 600, Epochs: 3, Seed: 17, Probes: 300,
			Faults: chaos.NetworkFaults{DropProb: 0.25, BlackholeProb: 0.1},
			Retry: cluster.RetryPolicy{
				MaxAttempts: 5, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond,
			},
			Agent: control.AgentOptions{
				DialTimeout: 100 * time.Millisecond, RPCTimeout: 100 * time.Millisecond,
			},
			Trace: tr,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	plain := run(nil)
	tr := trace.New(trace.Options{Seed: 17})
	traced := run(tr)
	if !reflect.DeepEqual(plain, traced) {
		t.Fatal("live tracer changed the chaos report")
	}
	if emitted, _ := tr.Stats(); emitted == 0 {
		t.Fatal("tracer recorded no events; instrumentation dead")
	}

	over := func(tr *trace.Tracer) *cluster.OverloadReport {
		rep, err := cluster.RunOverload(cluster.OverloadConfig{
			Sessions: 1200, Epochs: 3, Seed: 17, Governor: true,
			BurstFactor: 1.8, BurstProb: 0.5, BaseJitter: 0.05,
			Probes: 300, Trace: tr,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	plainOver := over(nil)
	tracedOver := over(trace.New(trace.Options{Seed: 17}))
	if !reflect.DeepEqual(plainOver, tracedOver) {
		t.Fatal("live tracer changed the overload report")
	}
}
