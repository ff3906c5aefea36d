package main

// replan.go holds the two operations-centre workloads: the NIDS replan at
// the paper's 50-node scale (one large cold LP plus the publish layers) and
// the NIPS pipeline (one relaxation plus many small re-solves).

import (
	"bytes"
	"math"
	"math/rand"
)

const (
	replanSessions = 20_000
	replanTopPairs = 200
	replanJitter   = 0.10
	replanBaseSeed = 5
	nipsRules      = 15
	nipsMaxPaths   = 30

	nipsReferenceSeed = 5
)

// nidsWL replans a 50-node deployment from jittered volumes and readies
// every node's decider from a delta against the previous epoch.
type nidsWL struct {
	r     *run
	topo  *topo
	trace []session
	base  *instance
	rng   *rand.Rand
	prev  []*manifest // every node's manifest of the previous epoch
	epoch uint64
	reg   *registry // receives the solver's own spans on traced iterations

	pivots     []float64 // per measured iteration
	deltaBytes []float64
}

func openNIDS(r *run) (opened, error) {
	w := &nidsWL{r: r, topo: fiftyNode(), rng: rand.New(rand.NewSource(r.sub(1))), epoch: 1, reg: newRegistry()}
	// The base trace is pinned, not seeded: simplex time is chaotic in the
	// instance's structure (+-15% across traces of one size), which would
	// drown the regression bound. The run's seed draws the volume jitter.
	w.trace = gravityTrace(w.topo, r.sized(replanSessions, 1000), r.sized(replanTopPairs, 20), replanBaseSeed)
	var err error
	if w.base, err = buildInstance(w.topo, standardModules(), w.trace); err != nil {
		return nil, err
	}
	p, err := solveNIDS(w.base, 1, solveCold, nil, nil)
	if err != nil {
		return nil, err
	}
	for j := 0; j < planNodes(p); j++ {
		m, err := manifestFromPlan(p, j, w.epoch)
		if err != nil {
			return nil, err
		}
		w.prev = append(w.prev, m)
	}
	return w, nil
}

func (w *nidsWL) close() {}

func (w *nidsWL) measure(total int) error {
	r, tr := w.r, w.r.tr
	return r.loop(total, func(i int) error {
		inst, err := jitterVolumes(w.base, replanJitter, w.rng)
		if err != nil {
			return err
		}
		w.epoch++
		n := len(w.prev)
		next := make([]*manifest, n)
		canon := make([][]byte, n)
		var reg *registry
		if tr != nil && i%2 == 1 && i >= r.warm {
			reg = w.reg // the solver's own spans, on the iterations that record ours
		}
		deltaBytes := 0

		r.sw.start()
		root := tr.begin("replan", -1)
		id := tr.begin("core.solve", root)
		p, err := solveNIDS(inst, 1, solveCold, nil, reg)
		tr.end(id)
		if err != nil {
			r.sw.stop()
			r.check(false, "replan solve: %v", err)
			return nil
		}
		var buf []byte
		for j := 0; j < n; j++ {
			id = tr.begin("control.manifest_build", root)
			m, err := manifestFromPlan(p, j, w.epoch)
			tr.end(id)
			if err != nil {
				return err
			}
			id = tr.begin("control.canonical", root)
			canon[j], err = canonicalManifest(m)
			tr.end(id)
			if err != nil {
				return err
			}
			id = tr.begin("control.diff", root)
			d, ok := diffManifests(w.prev[j], m)
			tr.end(id)
			if !ok {
				r.check(false, "node %d: epoch %d is not expressible as a delta", j, w.epoch)
				next[j] = m
				continue
			}
			id = tr.begin("control.encode_bin", root)
			buf = encodeDelta(buf[:0], d)
			tr.end(id)
			deltaBytes += len(buf)
			id = tr.begin("control.apply_delta", root)
			next[j], err = applyDelta(w.prev[j], d)
			tr.end(id)
			if err != nil {
				return err
			}
			id = tr.begin("control.decider_build", root)
			sinkDecider = newDecider(next[j])
			tr.end(id)
		}
		tr.end(root)
		r.sw.stop()

		// A node that applied the delta must hold exactly the manifest a full
		// fetch would have given it.
		bad := 0
		for j := range next {
			got, err := canonicalManifest(next[j])
			if err != nil || !bytes.Equal(got, canon[j]) {
				bad++
			}
		}
		r.op(n, bad, "epoch %d: %d of %d delta-applied manifests differ from the full manifest", w.epoch, bad, n)
		r.check(planObjective(p) > 0 && !math.IsNaN(planObjective(p)), "epoch %d: objective %v", w.epoch, planObjective(p))
		w.prev = next
		if i >= r.warm {
			w.pivots = append(w.pivots, float64(planPivots(p)))
			w.deltaBytes = append(w.deltaBytes, float64(deltaBytes)/float64(n))
		}
		return nil
	})
}

var sinkDecider *decider

// lpShareNote defines lp.share, the same on every workload that reports it.
const lpShareNote = "time inside lp.Solve (the solver's own lp.solve_ns) / wall time of the iterations it ran in"

// sameObjective holds an objective to its reference: 1e-6 relative, or
// within 5e-7 absolute — the simplex stops at a 1e-7 reduced-cost tolerance,
// so two pivot paths to one optimum may differ by that much however small
// the objective is (it is ~1e-3 at the smoke test's size).
func sameObjective(ref, got float64) bool {
	d := math.Abs(ref - got)
	return d <= 1e-6*math.Abs(ref) || d <= 5e-7
}

func (w *nidsWL) report() {
	r := w.r
	r.timing("replan_ms_p50", r.untraced(r.sw.ms), "ms")
	rows, cols := lpShape(w.base)
	r.exact("lp.rows", float64(rows), "count")
	r.exact("lp.cols", float64(cols), "count")
	r.add(metric{Name: "lp.pivots", Value: mean(w.pivots), Unit: "count", Exact: true, Note: "mean per cold solve, phase 1 + 2"})
	r.add(metric{Name: "control.delta_bytes_per_node", Value: mean(w.deltaBytes), Unit: "bytes", Exact: true})

	// Warm and cold solves of one instance must reach the same optimum.
	captured, err := solveNIDS(w.base, 1, solveCapture, nil, nil)
	if err != nil {
		r.check(false, "capture solve: %v", err)
		return
	}
	rng := rand.New(rand.NewSource(r.sub(2)))
	var warmMs, warmPivots []float64
	draws := 3
	if r.tr != nil {
		draws = r.probes(7)
	}
	for k := 0; k < draws; k++ {
		inst, err := jitterVolumes(w.base, replanJitter, rng)
		if err != nil {
			r.check(false, "jitter: %v", err)
			return
		}
		cold, cerr := solveNIDS(inst, 1, solveCold, nil, nil)
		var warm *plan
		var werr error
		warmMs = append(warmMs, timeNs(func() { warm, werr = solveNIDS(inst, 1, solveCapture, captured, nil) })/1e6)
		if cerr != nil || werr != nil {
			r.check(false, "reference solves: cold %v, warm %v", cerr, werr)
			continue
		}
		warmPivots = append(warmPivots, float64(planPivots(warm)))
		r.check(sameObjective(planObjective(cold), planObjective(warm)),
			"draw %d: cold objective %.9g, warm %.9g", k, planObjective(cold), planObjective(warm))
	}
	if r.tr == nil {
		return
	}

	layers := r.tr.layers()
	for _, call := range []string{"manifest_build", "canonical", "diff", "encode_bin", "apply_delta", "decider_build"} {
		r.value("control."+call+"_us_per_node", layers["control."+call].meanNs()/1e3, "us")
	}
	manifestBytes := 0
	for _, m := range w.prev {
		manifestBytes += len(encodeManifest(m))
	}
	r.value("control.manifest_bytes_per_node", float64(manifestBytes)/float64(len(w.prev)), "bytes")

	// The solver's own lp.solve_ns span (read through the public Metrics
	// option) splits the solve into formulation and simplex.
	if n := counterValue(w.reg, "lp.solves"); n > 0 {
		lpMs := float64(spanSumNs(w.reg, "lp.solve_ns")) / float64(n) / 1e6
		pivots := float64(counterValue(w.reg, "lp.pivots_phase1")+counterValue(w.reg, "lp.pivots_phase2")) / float64(n)
		r.value("lp.solve_ms", lpMs, "ms")
		r.noted("core.formulate_ms", layers["core.solve"].meanNs()/1e6-lpMs, "ms", "by subtraction: core.SolveOpts - lp.solve_ns")
		r.value("lp.pivots_per_s", pivots/lpMs*1e3, "1/s")
		r.noted("lp.share", float64(spanSumNs(w.reg, "lp.solve_ns"))/float64(layers["replan"].nanos), "frac", lpShareNote)
	}
	r.value("lp.warm_solve_ms", median(warmMs), "ms")
	r.add(metric{Name: "lp.warm_pivots", Value: mean(warmPivots), Unit: "count", Exact: true, Note: "mean per warm solve"})
	before := readAllocs()
	_, _ = solveNIDS(w.base, 1, solveCold, nil, nil)
	r.value("lp.alloc_bytes_per_solve", float64(before.since().bytes), "bytes")
	r.value("core.build_instance_ms", median(reps(r.probes(5), func() { _, _ = buildInstance(w.topo, standardModules(), w.trace) }))/1e6, "ms")

	// The dense-wall curve: cold solves of ever larger instances.
	for _, c := range lpCurve {
		t, modules := c.topo(), standardModules()
		if c.modules > len(modules) {
			modules = scaledModules(c.modules + 1)
		}
		pairs := c.topPairs
		if pairs > 0 {
			pairs = r.sized(pairs, 20)
		}
		inst, err := buildInstance(t, modules, gravityTrace(t, r.sized(replanSessions, 1000), pairs, replanBaseSeed))
		if err != nil {
			r.check(false, "curve %s: %v", c.name, err)
			continue
		}
		rows, cols := lpShape(inst)
		r.value("lp.curve_ms."+c.name, median(reps(r.probes(3), func() { _, _ = solveNIDS(inst, 1, solveCold, nil, nil) }))/1e6, "ms")
		r.exact("lp.curve_cells."+c.name, float64(rows*cols), "count")
	}
}

// lpCurve is the dense-wall curve's instances, smallest LP first: 20k
// sessions each on the named topology, classes and (for the 50-node
// stand-in) gravity pairs kept.
var lpCurve = []struct {
	name     string
	topo     func() *topo
	modules  int
	topPairs int
}{
	{"i2_8cls", internet2, 8, 0},
	{"geant_8cls", geant, 8, 0},
	{"fifty_top120", fiftyNode, 8, 120},
	{"fifty_top200", fiftyNode, 8, replanTopPairs},
	{"i2_20cls", internet2, 20, 0},
}

// nipsWL runs the NIPS pipeline on a fresh match-rate draw per iteration.
type nipsWL struct {
	r      *run
	base   *nipsInst
	ref    nipsOutcome // the first instance's solve, made at set-up
	reg    *registry
	traced int // iterations that fed reg
}

// openNIPS builds the instance and solves its first draw once: the initial
// deployment an operations centre starts from, and the reference the
// pipeline's determinism is held to.
func openNIPS(r *run) (opened, error) {
	w := &nipsWL{r: r, base: nipsBase(fiftyNode(), nipsRules, nipsMaxPaths), reg: newRegistry()}
	var err error
	w.ref, err = nipsSolve(w.reference(), nil)
	return w, err
}

// reference is a pinned draw, so set-up does the same work for every seed.
func (w *nipsWL) reference() *nipsInst { return nipsWithMatches(w.base, nipsReferenceSeed) }

func (w *nipsWL) close() {}

func (w *nipsWL) input(i int) *nipsInst { return nipsWithMatches(w.base, w.r.sub(10+i)) }

func (w *nipsWL) measure(total int) error {
	r, tr := w.r, w.r.tr
	return r.loop(total, func(i int) error {
		inst := w.input(i)
		var reg *registry
		if tr != nil && i%2 == 1 && i >= r.warm {
			reg = w.reg
			w.traced++
		}
		r.sw.start()
		id := tr.begin("nips.solve", -1)
		out, err := nipsSolve(inst, reg)
		tr.end(id)
		r.sw.stop()
		if err != nil {
			r.check(false, "iteration %d: solve: %v", i, err)
			return nil
		}
		r.check(out.verifyErr == nil, "iteration %d: deployment violates capacities: %v", i, out.verifyErr)
		r.check(out.objective > 0 && out.objective <= out.upperBound*(1+1e-6),
			"iteration %d: objective %.9g outside (0, LP bound %.9g]", i, out.objective, out.upperBound)
		return nil
	})
}

func (w *nipsWL) report() {
	r := w.r
	r.timing("nips_solve_ms_p50", r.untraced(r.sw.ms), "ms")
	// The pipeline is a pure function of its inputs: solving the first
	// instance again must reproduce the set-up's objective.
	again, err := nipsSolve(w.reference(), nil)
	r.check(err == nil && sameObjective(w.ref.objective, again.objective),
		"reference: the first instance solved to %.12g at set-up and %.12g now (%v)", w.ref.objective, again.objective, err)
	if r.tr == nil || w.traced == 0 {
		return
	}
	n := float64(w.traced)
	// The relaxation is the pipeline's first step and cannot be bracketed
	// inside it, so it is timed alone in alternation with the whole pipeline
	// on one instance; the rest (rounding, greedy fill, LP re-solve) is the
	// difference.
	probe := w.input(1)
	solveNs, relaxNs := interleave(r.probes(7),
		func() { _, _ = nipsSolve(probe, nil) },
		func() { _ = nipsRelax(probe) })
	r.value("nips.relax_ms", relaxNs/1e6, "ms")
	r.noted("nips.round_ms", (solveNs-relaxNs)/1e6, "ms", "by subtraction: nips.Solve - relaxation, same instance")
	r.add(metric{Name: "nips.lp_resolves", Value: float64(counterValue(w.reg, "nips.lp_resolves")) / n, Unit: "count", Exact: true, Note: "mean per solve"})
	r.add(metric{Name: "nips.round_trials", Value: float64(counterValue(w.reg, "nips.round_trials")) / n, Unit: "count", Exact: true, Note: "mean per solve"})
	lpNs, solveNs := float64(spanSumNs(w.reg, "lp.solve_ns")), float64(spanSumNs(w.reg, "nips.solve_ns"))
	r.noted("nips.lp_share", lpNs/solveNs, "frac", "lp.share of this workload: lp.solve_ns / nips.solve_ns, the solvers' own spans")
	r.value("lp.solve_ms", lpNs/n/1e6, "ms")
	r.add(metric{Name: "lp.pivots", Value: float64(counterValue(w.reg, "lp.pivots_phase1")+counterValue(w.reg, "lp.pivots_phase2")) / n, Unit: "count", Exact: true, Note: "mean per pipeline, all its LPs"})
}
