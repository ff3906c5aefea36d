package bro

import (
	"reflect"
	"testing"

	"nwdeploy/internal/core"
	"nwdeploy/internal/hashing"
	"nwdeploy/internal/obs"
	"nwdeploy/internal/topology"
	"nwdeploy/internal/traffic"
)

func metricsTestTrace(t *testing.T, n int) []traffic.Session {
	t.Helper()
	topo := topology.Internet2()
	return traffic.Generate(topo, traffic.Gravity(topo), traffic.GenConfig{Sessions: n, Seed: 19})
}

// TestRunMetricsNonInterference is the obs contract on the engine: a live
// registry must not change the report in any field.
func TestRunMetricsNonInterference(t *testing.T) {
	trace := metricsTestTrace(t, 4000)
	cfg := Config{
		Mode:    ModePlain,
		Modules: StandardModules()[1:],
		Hasher:  hashing.Hasher{Key: 3},
	}
	plain := Run(cfg, trace)

	cfg.Metrics = obs.New()
	instrumented := Run(cfg, trace)
	if !reflect.DeepEqual(plain, instrumented) {
		t.Fatalf("live registry changed the report:\n plain: %+v\n  live: %+v", plain, instrumented)
	}
	if got := cfg.Metrics.Counter("bro.sessions_observed").Value(); got != int64(plain.Observed) {
		t.Fatalf("bro.sessions_observed = %d, report says %d", got, plain.Observed)
	}
	if cfg.Metrics.Counter("bro.conns").Value() != int64(plain.Conns) {
		t.Fatal("bro.conns mismatch")
	}
}

// TestEmulationMetricsNonInterference runs the network-wide emulation with
// and without a registry and requires byte-identical results.
func TestEmulationMetricsNonInterference(t *testing.T) {
	topo := topology.Internet2()
	trace := metricsTestTrace(t, 2000)
	em, err := NewEmulation(topo, StandardModules()[1:], trace, core.UniformCaps(topo.N(), 1e9, 1e12))
	if err != nil {
		t.Fatal(err)
	}
	plain := em.Run(DeployCoordinated)

	em.Metrics = obs.New()
	instrumented := em.Run(DeployCoordinated)
	if !reflect.DeepEqual(plain, instrumented) {
		t.Fatal("live registry changed the emulation result")
	}
	if em.Metrics.Histogram("bro.emulation_ns").Count() == 0 {
		t.Fatal("bro.emulation_ns span never recorded")
	}
}
