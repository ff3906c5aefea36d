package cluster

import (
	"testing"
	"time"

	"nwdeploy/internal/bro"
	"nwdeploy/internal/chaos"
	"nwdeploy/internal/control"
	"nwdeploy/internal/topology"
	"nwdeploy/internal/trace"
)

// BenchmarkClusterConverge measures one full control-plane convergence
// round — a plan re-stamp followed by every agent re-fetching its
// manifest through a lossy network with retries — the recurring cost of
// the paper's periodic re-optimization cadence. An agent can exhaust its
// retries on the 20 %-drop network; the operations centre then runs
// another round, as the next re-optimization would. Every agent must hold
// the new generation within maxRounds rounds, and the extra rounds are
// reported per op.
func BenchmarkClusterConverge(b *testing.B) {
	const maxRounds = 4
	topo := topology.Internet2()
	c, err := newCluster(ScenarioConfig{
		Topo: topo, Modules: bro.StandardModules()[1:], Sessions: 800, Redundancy: 1,
		Seed:   41,
		Faults: chaos.NetworkFaults{DropProb: 0.2},
		Retry:  RetryPolicy{MaxAttempts: 6, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond},
		Agent:  control.AgentOptions{DialTimeout: 100 * time.Millisecond, RPCTimeout: 100 * time.Millisecond},
	}.withDefaults())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()

	b.ResetTimer()
	extra := 0
	for i := 0; i < b.N; i++ {
		c.BumpEpoch()
		for round := 1; ; round++ {
			c.Converge()
			behind := c.behindAgents()
			if behind == 0 {
				extra += round - 1
				break
			}
			if round == maxRounds {
				b.Fatalf("op %d: %d/%d agents behind after %d rounds", i, behind, topo.N(), round)
			}
		}
	}
	b.ReportMetric(float64(extra)/float64(b.N), "extra-rounds/op")
}

// behindAgents counts the agents not holding the controller's current
// generation.
func (c *Cluster) behindAgents() int {
	n := 0
	for _, a := range c.agents {
		if d := a.Decider(); d == nil || d.Epoch() != c.ctrl.Epoch() {
			n++
		}
	}
	return n
}

// BenchmarkDecideClusterShape times the data plane's decision alone on the
// shape cmd/perf's cluster_epoch runs: Internet2, 20k sessions at traffic
// seed 11, r = 2 and the five default per-path modules. Each agent's
// Decider, built from its wire manifest of the initial plan, runs
// DecideMask over that agent's own trace; ns/session is over all agents'
// sessions.
func BenchmarkDecideClusterShape(b *testing.B) {
	c, err := newCluster(ScenarioConfig{Sessions: 20_000, TrafficSeed: 11, Redundancy: 2}.withDefaults())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	deciders := make([]*control.Decider, len(c.agents))
	sessions := 0
	for j, a := range c.agents {
		m, err := control.ManifestFromPlan(c.plan, j, 1, hashKey)
		if err != nil {
			b.Fatal(err)
		}
		deciders[j] = control.NewDecider(m)
		sessions += len(a.trace)
	}
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		for j, a := range c.agents {
			d := deciders[j]
			for k := range a.trace {
				m, _ := d.DecideMask(&a.trace[k])
				sink ^= m
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*sessions), "ns/session")
	_ = sink
}

// BenchmarkTraceOverhead measures a full fault-free epoch — publish,
// fetch phase, data phase, coverage audit — with the tracer off and on.
// The acceptance bar is <= 5% slowdown with tracing enabled; compare the
// off/on sub-benchmark lines.
func BenchmarkTraceOverhead(b *testing.B) {
	run := func(b *testing.B, tr *trace.Tracer) {
		topo := topology.Internet2()
		c, err := newCluster(ScenarioConfig{
			Topo: topo, Modules: bro.StandardModules()[1:], Sessions: 800, Redundancy: 1,
			Seed: 41, Probes: 500, DataPlane: true, Trace: tr,
		}.withDefaults())
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.BumpEpoch()
			rep := c.RunEpoch(chaos.EpochFaults{})
			if rep.SyncedAgents != topo.N() {
				b.Fatalf("synced %d/%d agents", rep.SyncedAgents, topo.N())
			}
		}
	}
	b.Run("off", func(b *testing.B) { run(b, nil) })
	b.Run("on", func(b *testing.B) { run(b, trace.New(trace.Options{Seed: 41})) })
}
