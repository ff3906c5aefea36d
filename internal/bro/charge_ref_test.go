package bro

import (
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"testing"

	"nwdeploy/internal/hashing"
	"nwdeploy/internal/obs"
	"nwdeploy/internal/traffic"
)

// This file keeps the engine's module-by-module charging — what
// processSession charged each session before charging went by signature —
// as the test-only oracle charge is held to.

// refCharge accumulates the per-session charges of one run.
type refCharge struct {
	cpu, mem                  float64
	conns                     int
	modCPU, modPkts, modBytes []float64
	touched                   uint64
}

// session charges s as the per-module loop did, reading the session's
// decision (e.pass) off the engine right after e.processSession(s).
func (r *refCharge) session(e *engine, s *traffic.Session) {
	t := &e.tab
	pkts := float64(s.Packets)
	r.cpu += pkts*pktCaptureCost + e.sessionCPU
	_, sub := t.masks(&s.Tuple)
	if t.enforced && e.pass == 0 {
		return
	}
	if e.cfg.FineGrained && t.enforced && e.firstPacketOnly() {
		cpu := float64(connPktCost)
		r.touched |= e.pass
		for word := e.pass; word != 0; word &= word - 1 {
			mi := bits.TrailingZeros64(word)
			r.modPkts[mi]++
			r.modBytes[mi] += float64(s.Bytes)
			c := checkCost + t.mods[mi].scriptCost
			r.modCPU[mi] += c
			cpu += c
		}
		r.cpu += cpu
		return
	}
	cpu, mem := connSetupCost+pkts*connPktCost, e.connMem
	r.conns++
	r.touched |= sub
	for word := sub; word != 0; word &= word - 1 {
		mi := bits.TrailingZeros64(word)
		m := &t.mods[mi]
		c := m.checkCost
		if e.pass>>uint(mi)&1 != 0 {
			r.modPkts[mi] += pkts
			r.modBytes[mi] += float64(s.Bytes)
			c += m.eventOps*pkts + float64(m.events)*m.scriptCost
			mem += m.stateBytes
		}
		r.modCPU[mi] += c
		cpu += c
	}
	r.cpu += cpu
	r.mem += mem
}

// coin analyzes each (session, class) on a hash coin, so a run sees about
// as many signatures as it has sessions.
func coin(class int, s traffic.Session) bool {
	return (uint64(s.ID)*0x9E3779B97F4A7C15^uint64(class)*0xBF58476D1CE4E5B9)*0x94D049BB133111EB>>63 == 1
}

// Charging by signature is exact: on an eight-module set, a full 64-module
// word and a port-bound pair that most sessions subscribe to nothing of, in
// every mode, standalone, under a mask manifest and under a coin per class,
// with the fine-grained extension on and off, the report and the per-module
// metrics equal the module-by-module oracle's bit for bit, including runs
// whose signatures outgrow the inline table.
func TestChargeMatchesModuleLoop(t *testing.T) {
	_, dec, trace, node := aheadScenario(t)
	trace = trace[:3000]
	spilled := 0
	for _, modules := range [][]ModuleSpec{ModuleSubset(9)[1:], ModuleSubset(65)[1:], StandardModules()[5:7]} {
		deciders := []ManifestDecider{nil, byClass{len(modules), coin}}
		if len(modules) == 8 {
			deciders = append(deciders, dec) // the wire manifest's classes are the standard eight
		}
		for _, mode := range []Mode{ModePlain, ModeCoordPolicy, ModeCoordEvent} {
			for _, d := range deciders {
				for _, fine := range []bool{false, true} {
					cfg := Config{
						Mode: mode, Modules: modules, Decider: d, Node: node,
						Hasher: hashing.Hasher{Key: 1}, FineGrained: fine, Metrics: obs.New(),
					}
					name := fmt.Sprintf("%d modules, %v, decider %T, fine %v", len(modules), mode, d, fine)
					var e engine
					e.init(cfg, nil)
					L := len(modules)
					ref := refCharge{modCPU: make([]float64, L), modPkts: make([]float64, L), modBytes: make([]float64, L)}
					for i := range trace {
						e.processSession(&trace[i])
						ref.session(&e, &trace[i])
					}
					if e.sigs.heap != nil {
						spilled++
					}
					got := e.finish()
					want := Report{Node: node, CPUUnits: ref.cpu, MemBytes: ref.mem, Conns: ref.conns,
						Observed: len(trace), Alerts: got.Alerts, PerModuleCPU: map[string]float64{}}
					for mi, c := range ref.modCPU {
						if ref.touched>>uint(mi)&1 != 0 {
							want.PerModuleCPU[modules[mi].Name] += c
						}
						want.MemBytes += e.tableBytes(mi)
					}
					if math.Float64bits(got.CPUUnits) != math.Float64bits(want.CPUUnits) ||
						math.Float64bits(got.MemBytes) != math.Float64bits(want.MemBytes) ||
						!reflect.DeepEqual(got, want) {
						t.Fatalf("%s: report\n got %+v\nwant %+v", name, got, want)
					}
					if !reflect.DeepEqual(e.modPkts, ref.modPkts) || !reflect.DeepEqual(e.modBytes, ref.modBytes) {
						t.Fatalf("%s: per-module packets or bytes differ from the oracle", name)
					}
				}
			}
		}
	}
	if spilled == 0 {
		t.Fatal("no run outgrew the inline signature table: the heap path went untested")
	}
}
