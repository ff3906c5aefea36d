package main

// distribute.go holds the distribute-layer workload: one flat controller on
// loopback and 1000 agents, a delta/binary sweep after every publish, and a
// rotating quarter of the agents rejoining through the legacy full/JSON
// path.

import (
	"fmt"
	"math/rand"
	"sync"
)

const (
	distAgents = 1000
	distWindow = 8    // units per node manifest
	distChurn  = 0.05 // share of units whose ranges move per epoch
	distRejoin = 250  // agents replaced by fresh ones per epoch
	sweepers   = 2    // goroutines (and TCP connections) in flight; never above nproc
)

type distWL struct {
	r      *run
	ctrl   *controller
	agents []*agent
	plan   *plan
	rng    *rand.Rand
	epoch  uint64
	rejoin int // agents replaced per epoch

	formationMs    float64
	formationBytes int
	conv, rej      stopwatch
	wireBytes      []float64 // delta payload per measured epoch
	rejoinBytes    []float64
	deltaSyncs     int
	fullSyncs      int
}

func openDistribute(r *run) (opened, error) {
	n := r.sized(distAgents, 40)
	w := &distWL{r: r, rng: rand.New(rand.NewSource(r.sub(0))), epoch: 1, rejoin: n * distRejoin / distAgents}
	w.plan = synthPlan(synthTopo(n), distWindow)
	var err error
	if w.ctrl, err = newController(); err != nil {
		return nil, err
	}
	w.ctrl.UpdatePlan(w.plan)
	w.agents = make([]*agent, n)
	for j := range w.agents {
		w.agents[j] = newAgent(w.ctrl.Addr(), j)
	}
	// Formation: every agent's first sync is a full manifest.
	var bytes, bad int
	w.formationMs = timeNs(func() {
		bytes, bad = w.sweep(w.agents, syncFormBinary, -1, func(s syncResult) bool { return s.full && s.epoch == w.epoch })
	}) / 1e6
	w.formationBytes = bytes
	r.op(n, bad, "formation: %d of %d agents did not install epoch %d", bad, n, w.epoch)
	return w, nil
}

func (w *distWL) close() { w.ctrl.Close() }

// sweep syncs every listed agent once, split across the sweepers, and
// returns the response payload bytes and how many syncs failed or did not
// satisfy ok.
func (w *distWL) sweep(agents []*agent, kind syncKind, parent int, ok func(syncResult) bool) (bytes, bad int) {
	tr := w.r.tr
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < sweepers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			b, f := 0, 0
			for i := g; i < len(agents); i += sweepers {
				id := tr.begin("control.sync", parent)
				res, err := syncAgent(agents[i], kind)
				tr.end(id)
				b += res.wireBytes
				if err != nil || !ok(res) {
					f++
				}
			}
			mu.Lock()
			bytes, bad = bytes+b, bad+f
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	return bytes, bad
}

func (w *distWL) measure(total int) error {
	r, tr := w.r, w.r.tr
	n := len(w.agents)
	return r.loop(total, func(i int) error {
		next := churnPlan(w.plan, distWindow, distChurn, w.rng)
		w.epoch++

		// Publish, then sweep until the last agent has the new epoch
		// installed. In steady state every advance must be a delta.
		w.conv.start()
		root := tr.begin("converge", -1)
		w.ctrl.UpdatePlan(next)
		bytes, bad := w.sweep(w.agents, syncDeltaBinary, root, func(s syncResult) bool {
			return s.changed && !s.full && s.epoch == w.epoch
		})
		tr.end(root)
		w.conv.stop()
		w.plan = next
		r.op(n, bad, "epoch %d: %d of %d steady-state syncs failed or fell back to a full fetch", w.epoch, bad, n)
		behind := 0
		for _, a := range w.agents {
			if agentEpoch(a) != w.epoch {
				behind++
			}
		}
		r.op(n, behind, "epoch %d: %d of %d agents not converged", w.epoch, behind, n)

		// A rotating quarter of the fleet restarts: fresh agents full-fetch
		// over v1 JSON through the same controller.
		fresh := make([]*agent, w.rejoin)
		for k := range fresh {
			node := (i*w.rejoin + k) % n
			fresh[k] = newAgent(w.ctrl.Addr(), node)
			w.agents[node] = fresh[k]
		}
		w.rej.start()
		root = tr.begin("rejoin", -1)
		rbytes, rbad := w.sweep(fresh, syncFullJSON, root, func(s syncResult) bool { return s.full && s.epoch == w.epoch })
		tr.end(root)
		w.rej.stop()
		r.op(len(fresh), rbad, "epoch %d: %d of %d rejoining agents failed to full-fetch", w.epoch, rbad, len(fresh))

		r.sw.sum(i, &w.conv, &w.rej)
		if i >= r.warm {
			w.wireBytes = append(w.wireBytes, float64(bytes))
			w.rejoinBytes = append(w.rejoinBytes, float64(rbytes))
			w.deltaSyncs += n - bad
			w.fullSyncs += bad
		}
		return nil
	})
}

func (w *distWL) report() {
	r := w.r
	r.timing("converge_ms_p50", r.untraced(w.conv.ms), "ms")
	r.timing("rejoin_ms_p50", r.untraced(w.rej.ms), "ms")
	wire := median(w.wireBytes)
	r.add(metric{Name: "wire_bytes_per_epoch", Value: wire, Unit: "bytes", Exact: true, Note: "delta payload, median over epochs"})
	r.exact("control.delta_syncs", float64(w.deltaSyncs), "count")
	r.exact("control.full_syncs", float64(w.fullSyncs), "count")
	r.exact("control.formation_bytes", float64(w.formationBytes), "bytes")
	r.noted("control.delta_full_ratio", wire/float64(w.formationBytes), "ratio",
		fmt.Sprintf("delta bytes per epoch / formation bytes %d", w.formationBytes))
	r.value("control.formation_ms", w.formationMs, "ms")
	r.add(metric{Name: "control.rejoin_bytes", Value: median(w.rejoinBytes), Unit: "bytes", Exact: true, Note: "median over epochs"})
	if r.tr == nil {
		return
	}
	var syncUs []float64
	for _, ns := range r.tr.durations("control.sync") {
		syncUs = append(syncUs, ns/1e3)
	}
	r.add(metric{Name: "control.sync_us_p50", Value: median(syncUs), Unit: "us", Samples: len(syncUs)})
	v, pct, _ := tail(syncUs) // one traced epoch of the smallest fleet already has 50 syncs
	r.add(metric{Name: "control.sync_us_tail", Value: v, Unit: "us", Samples: len(syncUs), Note: fmt.Sprintf("p%.3f", pct)})
}
