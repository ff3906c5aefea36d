package main

// cluster.go holds the whole-pipeline workload: an 11-agent cluster over
// loopback TCP run through a diurnal day with every product plane on.

import (
	"fmt"
	"time"
)

const (
	clusterSessions = 20_000
	ablationEpochs  = 12 // epochs per ablation run, warm-up included
	ablationRounds  = 2
)

// clusterWL times epochs from outside: the scenario driver's Step marks
// each epoch boundary, so an epoch's time is Step to Step.
type clusterWL struct {
	r        *run
	sessions int
	out      clusterOutcome
	// engineNs and lpNs are what the run's registry added to bro.run_ns and
	// lp.solve_ns during each timed epoch, read at the same Steps the
	// stopwatch is: one entry per sample of r.sw.
	engineNs, lpNs []float64
}

// openCluster forms a cluster and runs it for one epoch: everything before
// the first Step (trace generation, the initial solve, controller start,
// agent formation) is the workload's set-up.
func openCluster(r *run) (opened, error) {
	w := &clusterWL{r: r, sessions: r.sized(clusterSessions, 1000)}
	_, setup, err := w.scenario(0, allPlanes, nil, nil)
	r.setupMs = float64(setup.Nanoseconds()) / 1e6
	return w, err
}

func (w *clusterWL) close() {}

// scenario runs the cluster for epochs+1 epochs, timing each of the first
// `epochs` on sw, Step to Step (the last epoch has no closing Step and is
// not timed), with a span per odd epoch on tr. It returns the time to the
// first Step: the set-up.
func (w *clusterWL) scenario(epochs int, p planes, sw *stopwatch, tr *tracer) (out clusterOutcome, setup time.Duration, err error) {
	r := w.r
	t0 := time.Now()
	open := -1
	var engine0, lp0 int64
	out, err = runCluster(clusterRun{
		sessions: w.sessions, epochs: epochs + 1, seed: r.sub(0), planes: p,
		onStep: func(epoch int, reg *registry) {
			if epoch == 1 {
				setup = time.Since(t0)
			} else if sw != nil {
				tr.end(open)
				sw.stop()
				if sw == &r.sw {
					w.engineNs = append(w.engineNs, float64(spanSumNs(reg, "bro.run_ns")-engine0))
					w.lpNs = append(w.lpNs, float64(spanSumNs(reg, "lp.solve_ns")-lp0))
				}
			}
			if sw != nil && epoch <= epochs {
				if sw == &r.sw {
					engine0, lp0 = spanSumNs(reg, "bro.run_ns"), spanSumNs(reg, "lp.solve_ns")
				}
				tr.iteration(epoch-1, epoch%2 == 0)
				sw.start()
				open = tr.begin("cluster.epoch", -1)
			}
		},
	})
	if err != nil {
		return out, 0, err
	}
	tr.iteration(epochs, false)
	r.op(out.epochs, out.breaches, "%d of %d epochs breached the published coverage floor", out.breaches, out.epochs)
	r.check(out.floorHeld, "coverage floor not held")
	r.check(out.epochs == epochs+1, "ran %d epochs of %d", out.epochs, epochs+1)
	return out, setup, nil
}

func (w *clusterWL) measure(total int) error {
	var err error
	w.out, _, err = w.scenario(total, allPlanes, &w.r.sw, w.r.tr)
	return err
}

func (w *clusterWL) report() {
	r := w.r
	r.timing("epoch_ms_p50", r.untraced(r.sw.ms), "ms")
	epochs := float64(w.out.epochs)
	r.exact("cluster.replans", float64(w.out.replans), "count")
	r.exact("cluster.replan_iters", float64(w.out.replanIters), "count")
	r.add(metric{Name: "cluster.fetch_attempts", Value: float64(counterValue(w.out.reg, "control.agent_requests")), Unit: "count", Exact: true,
		Note: "control.agent_requests: the scenario runtime does not feed cluster.fetch_attempts"})
	r.exact("control.agent_rx_bytes_per_epoch", float64(counterValue(w.out.reg, "control.agent_rx_bytes"))/epochs, "bytes")
	// Shares of the measured epochs' own time: the stopwatch's samples, which
	// leave out what the harness does between epochs.
	wallNs := 1e6 * sum(r.sw.ms[r.warm:])
	r.noted("cluster.dataplane_share", sum(w.engineNs[r.warm:])/(float64(maxProcs())*wallNs), "frac",
		"engine run time / (GOMAXPROCS x the measured epochs' time)")
	r.noted("lp.share", sum(w.lpNs[r.warm:])/wallNs, "frac", lpShareNote)

	// The deployed plan, re-derived the way the runtime derives it, must
	// give every session r analysts over the wire path.
	trace, modules := clusterTrace(w.sessions), clusterModules()
	inst, err := buildInstance(internet2(), modules, trace)
	if err != nil {
		r.check(false, "cluster instance: %v", err)
		return
	}
	p, err := solveNIDS(inst, clusterRedundancy, solveCold, nil, nil)
	if err != nil {
		r.check(false, "cluster plan: %v", err)
		return
	}
	checkCoverage(r, modules, p, trace, clusterRedundancy)
	if r.tr == nil {
		return
	}

	// One plane-off ablation each, interleaved with the all-on run.
	variants := []struct {
		name string
		off  func(*planes)
	}{
		{"", func(*planes) {}},
		{"ledger", func(p *planes) { p.ledger = false }},
		{"telemetry", func(p *planes) { p.fleet = false }},
		{"trace", func(p *planes) { p.trace = false }},
		{"obs", func(p *planes) { p.metrics = false }},
		{"governor", func(p *planes) { p.governor = false }},
	}
	rounds, perRun := ablationRounds, ablationEpochs
	if r.scale < 1 {
		rounds, perRun = 1, r.warm+2 // the smoke test only checks the ablations run
	}
	samples := make([][]float64, len(variants))
	for round := 0; round < rounds; round++ {
		for vi, v := range variants {
			p := allPlanes
			v.off(&p)
			var sw stopwatch
			if _, _, err := w.scenario(perRun, p, &sw, nil); err != nil {
				r.check(false, "ablation %q: %v", v.name, err)
				return
			}
			samples[vi] = append(samples[vi], sw.norm[r.warm:]...)
		}
	}
	allOn := median(samples[0])
	for vi, v := range variants[1:] {
		r.noted(v.name+".overhead_frac", allOn/median(samples[vi+1])-1, "frac",
			fmt.Sprintf("all planes on / %s off - 1, epoch medians, %d epochs each", v.name, len(samples[vi+1])))
	}
}
