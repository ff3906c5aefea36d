package bro

import (
	"reflect"
	"testing"

	"nwdeploy/internal/core"
	"nwdeploy/internal/topology"
	"nwdeploy/internal/traffic"
)

// TestEmulationWorkersDeterminism: node runs are independent, so the
// network-wide emulation result is byte-identical for every worker count.
func TestEmulationWorkersDeterminism(t *testing.T) {
	topo := topology.Internet2()
	sessions := traffic.Generate(topo, traffic.Gravity(topo), traffic.GenConfig{
		Sessions: 3000, Seed: 23, HostsPerNode: 8,
	})
	mods := StandardModules()[1:]
	em, err := NewEmulation(topo, mods, sessions, core.UniformCaps(topo.N(), 1e9, 1e12))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []Deployment{DeployEdge, DeployCoordinated} {
		em.Workers = 1
		serial := em.Run(d)
		em.Workers = 4
		parallel4 := em.Run(d)
		if !reflect.DeepEqual(serial, parallel4) {
			t.Errorf("%v: emulation result depends on worker count", d)
		}
		if serial.TotalAlerts() == 0 && d == DeployCoordinated {
			t.Errorf("%v: no alerts; comparison is weak", d)
		}
	}
}
