// Command dataplane benchmarks the per-packet decision path end to end and
// writes the results as JSON (BENCH_dataplane.json in the bench tier).
//
//	dataplane [-o BENCH_dataplane.json] [-sessions 60000] [-node 10] [-reps 9]
//
// Two decision loops run over the same node-local trace and must produce
// identical verdicts:
//
//   - legacy: the pre-index serial engine's per-session loop — a fresh
//     []bool row allocated per session, per-class map-backed range lookups
//     (control.BaselineDecider), hash recomputed per class via the generic
//     Bob block loop.
//   - batched: the engine's current ingestion primitive — one
//     control.Decider.DecideMask call per session returning the verdict
//     bitmask for all classes at once, backed by the scope-grouped unit
//     index and the flattened interval arena; no per-session row at all.
//
// The report also includes full-engine session/packet throughput and the
// allocation count of the batched decision path, which must be zero.
package main

import (
	"encoding/json"
	"flag"
	"log"
	"os"
	"testing"
	"time"

	"nwdeploy/internal/bro"
	"nwdeploy/internal/control"
	"nwdeploy/internal/core"
	"nwdeploy/internal/hashing"
	"nwdeploy/internal/topology"
	"nwdeploy/internal/traffic"
)

type result struct {
	Sessions            int     `json:"sessions"`
	Classes             int     `json:"classes"`
	Decisions           int     `json:"decisions"`
	LegacyNsPerSession  float64 `json:"legacy_ns_per_session"`
	BatchedNsPerSession float64 `json:"batched_ns_per_session"`
	LegacyDecisionsSec  float64 `json:"legacy_decisions_per_sec"`
	DecisionsSec        float64 `json:"decisions_per_sec"`
	Speedup             float64 `json:"speedup"`
	AllocsPerOp         float64 `json:"allocs_per_op"`
	EngineSessionsSec   float64 `json:"engine_sessions_per_sec"`
	EnginePacketsSec    float64 `json:"engine_packets_per_sec"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("dataplane: ")
	out := flag.String("o", "BENCH_dataplane.json", "output JSON path")
	nSessions := flag.Int("sessions", 60000, "trace size before node filtering")
	node := flag.Int("node", 10, "node whose manifest is benchmarked")
	reps := flag.Int("reps", 9, "timing repetitions (fastest wins)")
	nModules := flag.Int("modules", 21, "module count (Figure 6 sweep top end)")
	flag.Parse()

	topo := topology.Internet2()
	// The paper's scaling experiment duplicates existing modules up to 21
	// "to emulate the effect of adding NIDS functionality"; benchmark the
	// top of that sweep. The baseline module (index 0) analyzes nothing.
	modules := bro.WithDuplicates(*nModules)[1:]
	sessions := traffic.Generate(topo, traffic.Gravity(topo), traffic.GenConfig{
		Sessions: *nSessions, Seed: 23,
	})
	inst, err := core.BuildInstance(topo, bro.Classes(modules), sessions,
		core.UniformCaps(topo.N(), 1e9, 1e12))
	if err != nil {
		log.Fatal(err)
	}
	plan, err := core.Solve(inst, 1)
	if err != nil {
		log.Fatal(err)
	}
	manifest, err := control.ManifestFromPlan(plan, *node, 1, 1)
	if err != nil {
		log.Fatal(err)
	}
	local := nodeTrace(topo, sessions, *node)
	if len(local) == 0 {
		log.Fatalf("node %d observes no sessions", *node)
	}

	legacy := control.NewBaselineDecider(manifest)
	dec := control.NewDecider(manifest)
	L := len(modules)

	// Both loops replicate the engine's actual call shape of their era: the
	// pre-index engine resolved every module's verdict through its
	// cfg.Decider interface (one dynamic dispatch per module per session);
	// the current engine makes one MaskDecider dispatch per session.
	var legacyDec bro.ManifestDecider = legacy
	var maskDec bro.MaskDecider = dec

	// Both loops fill a verdict row per session; they must agree exactly.
	legacyLoop := func(rows [][]bool) {
		for si, s := range local {
			row := make([]bool, L) // the pre-index engine allocated per session
			for mi := range modules {
				if modules[mi].MatchesSession(s) && legacyDec.ShouldAnalyze(mi, s) {
					row[mi] = true
				}
			}
			if rows != nil {
				rows[si] = row
			}
		}
	}
	// The decider's internal class filter equals ModuleSpec.MatchesSession
	// (Classes copies Ports and Transport through to the wire manifest), so
	// the batched loop needs no per-module re-check; the verdict comparison
	// below enforces that equality. The loop measures the engine's actual
	// ingestion primitive — one DecideMask word per session, scattered into
	// the bit-packed pass set without a []bool row.
	var maskSink uint64
	batchedLoop := func(rows [][]bool) {
		for si := range local {
			em, ok := maskDec.DecideMask(&local[si])
			if !ok {
				log.Fatal("manifest exceeds 64 classes; mask path unavailable")
			}
			maskSink ^= em
			if rows != nil {
				row := make([]bool, L)
				for mi := range row {
					row[mi] = em&(uint64(1)<<uint(mi)) != 0
				}
				rows[si] = row
			}
		}
	}
	rowsA := make([][]bool, len(local))
	rowsB := make([][]bool, len(local))
	legacyLoop(rowsA)
	batchedLoop(rowsB)
	for si := range rowsA {
		for mi := range rowsA[si] {
			if rowsA[si][mi] != rowsB[si][mi] {
				log.Fatalf("verdict mismatch at session %d module %d", si, mi)
			}
		}
	}

	// The two loops are timed in alternation, not phase by phase: on a
	// shared machine, background load that drifts over the run would
	// otherwise land on one loop's phase and skew the ratio. Alternating
	// reps expose both loops to the same conditions; fastest-of-reps then
	// rejects the contended repetitions for each independently.
	legacyNsTotal, batchedNsTotal := timePair(*reps,
		func() { legacyLoop(nil) }, func() { batchedLoop(nil) })
	legacyNs := legacyNsTotal / float64(len(local))
	batchedNs := batchedNsTotal / float64(len(local))

	allocs := testing.AllocsPerRun(2000, func() {
		em, _ := maskDec.DecideMask(&local[0])
		maskSink ^= em
	})
	if maskSink == 0x5ca1ab1e {
		log.Print("sink") // defeat dead-code elimination of the timed loops
	}

	engCfg := bro.Config{
		Mode: bro.ModeCoordEvent, Modules: modules, Decider: dec, Node: *node,
		Hasher: hashing.Hasher{Key: 1},
	}
	var pkts float64
	for _, s := range local {
		pkts += float64(s.Packets)
	}
	engNs := timeLoop(*reps, func() { bro.Run(engCfg, local) })

	r := result{
		Sessions:            len(local),
		Classes:             L,
		Decisions:           len(local) * L,
		LegacyNsPerSession:  legacyNs,
		BatchedNsPerSession: batchedNs,
		LegacyDecisionsSec:  1e9 / legacyNs * float64(L),
		DecisionsSec:        1e9 / batchedNs * float64(L),
		Speedup:             legacyNs / batchedNs,
		AllocsPerOp:         allocs,
		EngineSessionsSec:   1e9 * float64(len(local)) / engNs,
		EnginePacketsSec:    1e9 * pkts / engNs,
	}
	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	log.Printf("sessions=%d legacy=%.1fns/session batched=%.1fns/session speedup=%.2fx allocs=%v",
		r.Sessions, r.LegacyNsPerSession, r.BatchedNsPerSession, r.Speedup, r.AllocsPerOp)
}

// timeLoop runs fn reps times and returns the fastest wall time in ns.
func timeLoop(reps int, fn func()) float64 {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < reps; i++ {
		start := time.Now()
		fn()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return float64(best.Nanoseconds())
}

// timePair times two loops in alternation and returns each one's fastest
// wall time in ns.
func timePair(reps int, fnA, fnB func()) (float64, float64) {
	bestA := time.Duration(1<<63 - 1)
	bestB := bestA
	for i := 0; i < reps; i++ {
		start := time.Now()
		fnA()
		if d := time.Since(start); d < bestA {
			bestA = d
		}
		start = time.Now()
		fnB()
		if d := time.Since(start); d < bestB {
			bestB = d
		}
	}
	return float64(bestA.Nanoseconds()), float64(bestB.Nanoseconds())
}

// nodeTrace filters the sessions node j observes (origin, terminus, or
// transit), mirroring the emulation's per-node traces.
func nodeTrace(topo *topology.Topology, sessions []traffic.Session, j int) []traffic.Session {
	paths := topo.PathMatrix()
	var out []traffic.Session
	for _, s := range sessions {
		for _, n := range paths[s.Src][s.Dst] {
			if n == j {
				out = append(out, s)
				break
			}
		}
	}
	return out
}
