package main

// node.go holds the three per-node data-plane workloads: the coordinated
// engine, the edge-only engine, and the engine fed from a packet capture.

import (
	"fmt"
	"reflect"
)

const (
	benchNode    = 10 // the Internet2 node whose share of the trace is replayed
	nodeModules  = 21 // top of the paper's Figure 6 module sweep (baseline included)
	nodeSessions = 100_000
	pcapSessions = 10_000
	sampleSize   = 2000 // sessions the coverage check looks at

	planReportSeed = 5 // the pinned traffic report the node workloads' plan is solved from
)

// nodeWL replays one node's share of a gravity trace through one engine.
type nodeWL struct {
	r       *run
	mode    engineMode
	topo    *topo
	modules []moduleSpec
	full    []session // the network-wide trace (coordinated workloads check coverage on it)
	local   []session // the benchmark node's share
	plan    *plan     // nil for the edge workload
	dec     *decider
	capture []byte // node_pcap only
	frames  int
	first   engReport
}

// openNode builds the trace and, for a coordinated engine, solves the
// placement and builds the node's decider from its wire manifest.
func openNode(r *run, mode engineMode, sessions int, pcap bool) (*nodeWL, error) {
	w := &nodeWL{r: r, mode: mode, topo: internet2(), modules: scaledModules(nodeModules)}
	w.full = gravityTrace(w.topo, r.sized(sessions, 500), 0, r.sub(0))
	w.local = nodeShare(w.topo, w.full, benchNode)
	if len(w.local) == 0 {
		return nil, fmt.Errorf("node %d observes no sessions", benchNode)
	}
	if mode == engineCoord {
		// As deployed, the plan comes from an earlier traffic report, not from
		// the traffic it is then applied to: a pinned trace of nodeSessions.
		// That also keeps the node's share of the analysis — which the LP's
		// choice among equal optima moves by +-5% — the same for every seed.
		report := gravityTrace(w.topo, r.sized(nodeSessions, 500), 0, planReportSeed)
		inst, err := buildInstance(w.topo, w.modules, report)
		if err != nil {
			return nil, err
		}
		if w.plan, err = solveNIDS(inst, 1, solveCold, nil, nil); err != nil {
			return nil, err
		}
		m, err := manifestFromPlan(w.plan, benchNode, 1)
		if err != nil {
			return nil, err
		}
		w.dec = newDecider(m)
	}
	if pcap {
		var err error
		if w.capture, w.frames, err = writeCapture(w.local, r.sub(1)); err != nil {
			return nil, err
		}
	}
	return w, nil
}

func (w *nodeWL) close() {}

// once is one engine run over the node's share.
func (w *nodeWL) once() (engReport, error) {
	if w.capture != nil {
		return enginePcap(w.mode, w.modules, w.dec, benchNode, w.capture)
	}
	return engineRun(w.mode, w.modules, w.dec, benchNode, 1, w.local), nil
}

func (w *nodeWL) measure(total int) error {
	return w.r.loop(total, func(i int) error {
		w.r.sw.start()
		id := w.r.tr.begin("bro.run", -1)
		rep, err := w.once()
		w.r.tr.end(id)
		w.r.sw.stop()
		if err != nil {
			return err
		}
		// The cost model is deterministic: every run over the same trace must
		// report exactly what the first did.
		if i == 0 {
			w.first = rep
		}
		w.r.check(reflect.DeepEqual(rep, w.first), "engine report of iteration %d differs from iteration 0", i)
		return nil
	})
}

func (w *nodeWL) report() {
	r := w.r
	runMs := median(r.untraced(r.sw.ms))
	sessions := float64(len(w.local))
	r.check(w.first.Observed == len(w.local), "engine observed %d sessions of %d", w.first.Observed, len(w.local))
	var reassembled []session // node_pcap: what the capture's front half hands the engine
	if w.capture != nil {
		r.noted("packets_per_s", float64(w.frames)/runMs*1e3, "frames/s", fmt.Sprintf("%d frames / median iteration, raw time", w.frames))
		got, decoded, malformed, err := readCapture(w.capture)
		r.check(err == nil && malformed == 0 && decoded == w.frames,
			"capture: %d frames decoded of %d, %d malformed, err %v", decoded, w.frames, malformed, err)
		r.check(len(got) == len(w.local), "capture reassembled %d sessions of %d", len(got), len(w.local))
		reassembled = got
	} else {
		r.noted("sessions_per_s", sessions/runMs*1e3, "sessions/s", "sessions / median iteration, raw time")
	}
	r.exact("sessions", sessions, "count")
	r.exact("bro.cost_units_per_session", w.first.CPUUnits/sessions, "units")
	if w.plan != nil {
		checkCoverage(r, w.modules, w.plan, w.full, 1)
	}
	if r.tr == nil {
		return
	}

	// Layer probes. The decision path cannot be bracketed inside bro.Run
	// from outside, so it is timed alone over the same sessions and the
	// analysis time is the run minus it.
	decideNs := 0.0
	if w.dec != nil && w.capture == nil {
		var analyzed uint64
		decide := func() {
			analyzed = 0
			for i := range w.local {
				m := decideMask(w.dec, &w.local[i])
				sinkMask ^= m
				if m != 0 {
					analyzed++
				}
			}
		}
		decideNs = median(reps(r.probes(9), decide)) / sessions
		before := readAllocs()
		decide()
		allocs := before.since()
		r.value("control.decide_ns_per_session", decideNs, "ns")
		r.value("control.decide_share", decideNs*sessions/(runMs*1e6), "frac")
		r.value("control.decide_allocs_per_session", float64(allocs.objects)/sessions, "count")
		r.exact("control.analyzed_frac", float64(analyzed)/sessions, "frac")

		hashNs := median(reps(r.probes(9), func() {
			for i := range w.local {
				sinkHash += hashTuple(tupleOf(&w.local[i]))
			}
		}))
		r.noted("hashing.hash_ns_per_tuple", hashNs/sessions, "ns", "Flow+Session+Source+Destination")

		serial, sharded := interleave(r.probes(7),
			func() { engineRun(w.mode, w.modules, w.dec, benchNode, 1, w.local) },
			func() { engineRun(w.mode, w.modules, w.dec, benchNode, 0, w.local) })
		r.noted("bro.sharded_ratio", serial/sharded, "ratio",
			fmt.Sprintf("Workers 0 / Workers 1 sessions/s; base %.0f sessions/s", sessions/serial*1e9))
	}

	if w.capture != nil {
		// RunPcap is ReadSessions then Run, so its two halves are timed
		// directly, in alternation, over the same capture.
		frames := float64(w.frames)
		frontNs, engineNs := interleave(r.probes(5),
			func() { readCapture(w.capture) },
			func() { engineRun(w.mode, w.modules, w.dec, benchNode, 1, reassembled) })
		before := readAllocs()
		readCapture(w.capture)
		allocs := before.since()
		r.value("packet.decode_assemble_ns_per_packet", frontNs/frames, "ns")
		r.value("packet.share", frontNs/(frontNs+engineNs), "frac")
		r.value("packet.alloc_bytes_per_packet", float64(allocs.bytes)/frames, "bytes")
		tuples, stamps, sizes, err := captureTuples(w.capture)
		r.check(err == nil && len(tuples) == w.frames, "capture tuples: %d of %d, err %v", len(tuples), w.frames, err)
		r.value("conntrack.update_ns_per_packet", median(reps(r.probes(5), func() { conntrackPass(tuples, stamps, sizes) }))/frames, "ns")
		r.noted("bro.analyze_ns_per_session", engineNs/sessions, "ns", "bro.Run over the reassembled sessions, decide included")
		r.value("bro.analyze_share", engineNs/(frontNs+engineNs), "frac")
	} else {
		analyzeNs := runMs*1e6 - decideNs*sessions
		r.noted("bro.analyze_ns_per_session", analyzeNs/sessions, "ns", "by subtraction: bro.Run - decide loop")
		r.noted("bro.analyze_share", analyzeNs/(runMs*1e6), "frac", "by subtraction")
	}
	before := readAllocs()
	_, _ = w.once()
	allocs := before.since()
	r.value("bro.alloc_bytes_per_session", float64(allocs.bytes)/sessions, "bytes")
	if w.mode == engineEdge {
		// Each standard module alone, standalone: measured where the engine
		// runs standalone, over the same sessions node_coord replays.
		for _, m := range standardModules() {
			one := []moduleSpec{m}
			ns := median(reps(r.probes(3), func() { engineRun(engineEdge, one, nil, benchNode, 1, w.local) }))
			r.value("bro.module_ns_per_session."+moduleName(m), ns/sessions, "ns")
		}
	}
}

// Probe loops store into package variables so the compiler keeps them.
var (
	sinkMask uint64
	sinkHash float64
)

// interleave times two functions in alternation, so drifting background
// load lands on both, and returns each one's median in ns.
func interleave(n int, a, b func()) (float64, float64) {
	a()
	b()
	as, bs := make([]float64, 0, n), make([]float64, 0, n)
	for i := 0; i < n; i++ {
		as = append(as, timeNs(a))
		bs = append(bs, timeNs(b))
	}
	return median(as), median(bs)
}

// checkCoverage verifies the paper's invariant on the wire path a deployed
// node takes (plan -> wire manifest -> decider): for a sample of sessions,
// exactly r distinct nodes' deciders select each (session, matching class),
// and the published ranges tile the hash space to depth r.
func checkCoverage(r *run, modules []moduleSpec, p *plan, sessions []session, redundancy int) {
	n := planNodes(p)
	manifests := make([]*manifest, n)
	deciders := make([]*decider, n)
	for j := 0; j < n; j++ {
		m, err := manifestFromPlan(p, j, 1)
		if err != nil {
			r.check(false, "manifest for node %d: %v", j, err)
			return
		}
		manifests[j], deciders[j] = m, newDecider(m)
	}
	units, bad := manifestTiles(manifests, redundancy)
	r.op(units, bad, "%d of %d units' published ranges do not tile [0,%d)", bad, units, redundancy)

	stride := len(sessions) / sampleSize
	if stride < 1 {
		stride = 1
	}
	// A (class, path) the plan's traffic report never saw has no unit and so
	// no analyst; the invariant is about planned units, so such pairs must be
	// selected by nobody and are counted apart.
	pairs, wrong, unplanned := 0, 0, 0
	for si := 0; si < len(sessions); si += stride {
		s := &sessions[si]
		masks := make([]uint64, n)
		for j := range deciders {
			masks[j] = decideMask(deciders[j], s)
		}
		for ci, m := range modules {
			if !moduleMatches(m, *s) {
				continue
			}
			want := redundancy
			if !planCovers(p, ci, *s) {
				want = 0
				unplanned++
			}
			pairs++
			selected := 0
			for j := range masks {
				if masks[j]&(1<<uint(ci)) != 0 {
					selected++
				}
			}
			if selected != want {
				wrong++
			}
		}
	}
	r.op(pairs, wrong, "%d of %d (session, class) pairs not selected by exactly %d nodes", wrong, pairs, redundancy)
	r.exact("coverage.unplanned_pairs", float64(unplanned), "count")
}
