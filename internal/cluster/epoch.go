package cluster

import (
	"errors"
	"fmt"
	"slices"

	"nwdeploy/internal/bro"
	"nwdeploy/internal/control"
	"nwdeploy/internal/core"
	"nwdeploy/internal/governor"
	"nwdeploy/internal/hashing"
	"nwdeploy/internal/lp"
	"nwdeploy/internal/parallel"
	"nwdeploy/internal/trace"
	"nwdeploy/internal/traffic"
)

// The epoch loop: the one place a runtime epoch's phases are sequenced.
// Every entry point — RunScenario, RunOverload and CoverageUnderChaos (and
// the tests' Cluster.RunEpoch) — builds a Cluster, hands run a stepper,
// and projects the ScenarioEpoch records it returns into its own report
// type. The phase order is the paper's operations-centre cycle (Sections
// 2.4-2.5, 3.5):
//
//	step the driver  → apply faults and drains
//	offered volumes  → drift detection → replan → govern and shed
//	fetch and tally  → data plane → evasion and coverage audit
//	watchdog         → ledger verdict → fleet sample
//
// A Cluster without dynamics (New alone, CoverageUnderChaos) models no
// traffic volumes: the second row is empty and the data plane always runs.

// stepper is the loop's view of a driver. It is called once per epoch,
// after c.epoch names the epoch about to run and before any of it has, with
// the previous epoch's published state in env (the Section 3.5 information
// order). pairVols, when non-nil, are absolute per-pair volumes that
// replace Stimulus.PairScale × PairMeans — the one thing an in-package
// driver may hand over that a ScenarioDriver cannot.
type stepper func(env *ScenarioEnv) (st Stimulus, pairVols []float64)

// dynamics is the volume-driven half of the loop: the knobs and the state
// drift detection, replanning and governing carry between epochs.
type dynamics struct {
	// cfg supplies Governor, Replan/WarmReplan/ReplanMaxIters and
	// DataPlane.
	cfg ScenarioConfig

	scaler unitScales
	// origPkts/origItems are the volumes the first plan was solved against:
	// drivers scale the *original* workload, while the detector and the
	// governors compare against the *current* plan's, which move when a
	// replan lands.
	origPkts, origItems []float64
	detector            *DriftDetector
	govs                []*governor.Governor
	// floor holds each node's copy-0 slices of the current plan: the r = 1
	// floor the governors' local reasoning assumes is enforced.
	floor [][]core.ManifestSlice
	// lastShed is the shed state the governors published: this epoch's
	// coverage audit subtracts it, and the next epoch's driver sees it.
	// Entries stay nil while the governors only project.
	lastShed []map[int]hashing.RangeSet
}

// attachDynamics turns the volume phases on for c, configured from cfg's
// governor and replan knobs.
func (c *Cluster) attachDynamics(cfg ScenarioConfig) error {
	pv := traffic.Volumes(cfg.Topo, traffic.Gravity(cfg.Topo), 0)
	d := &dynamics{
		cfg:       cfg,
		scaler:    newUnitScales(c.inst, pv),
		origPkts:  make([]float64, len(c.inst.Units)),
		origItems: make([]float64, len(c.inst.Units)),
		govs:      make([]*governor.Governor, len(c.agents)),
		lastShed:  make([]map[int]hashing.RangeSet, len(c.agents)),
	}
	for ui, u := range c.inst.Units {
		d.origPkts[ui] = u.Pkts
		d.origItems[ui] = u.Items
	}
	d.detector = NewDriftDetector(d.origPkts, cfg.EWMAAlpha, cfg.ReplanThreshold)
	c.dyn = d
	return c.buildGovernors()
}

// buildGovernors rebuilds every node's governor against the current plan.
func (c *Cluster) buildGovernors() error {
	c.dyn.floor = make([][]core.ManifestSlice, len(c.dyn.govs))
	for j, slices := range c.plan.Slices() {
		for _, ms := range slices {
			if ms.Copy == 0 {
				c.dyn.floor[j] = append(c.dyn.floor[j], ms)
			}
		}
	}
	for j := range c.dyn.govs {
		g, err := governor.New(c.plan, j, governor.Config{Metrics: c.dyn.cfg.Metrics})
		if err != nil {
			return err
		}
		c.dyn.govs[j] = g
	}
	return nil
}

// unitScales maps pair-keyed volumes onto per-unit volume scale factors: a
// PerPath unit follows its pair, a PerIngress (PerEgress) unit the
// aggregate of pairs entering (leaving) at its node. Units whose traffic
// the pair list does not model keep scale 1.
type unitScales struct {
	members [][]int // per unit: indices into pv's pair list
	pv      traffic.PathVolumes
}

func newUnitScales(inst *core.Instance, pv traffic.PathVolumes) unitScales {
	us := unitScales{pv: pv}
	byPair := map[[2]int][]int{}
	bySrc := map[int][]int{}
	byDst := map[int][]int{}
	for k, p := range pv.Pairs {
		a, b := p[0], p[1]
		if a > b {
			a, b = b, a
		}
		byPair[[2]int{a, b}] = append(byPair[[2]int{a, b}], k)
		bySrc[p[0]] = append(bySrc[p[0]], k)
		byDst[p[1]] = append(byDst[p[1]], k)
	}
	us.members = make([][]int, len(inst.Units))
	for ui, u := range inst.Units {
		switch {
		case u.Key[1] != -1:
			us.members[ui] = byPair[u.Key]
		case inst.Classes[u.Class].Scope == core.PerEgress:
			// An egress unit's key is its destination: aggregate the pairs
			// terminating there, not the ones (if any) originating there.
			us.members[ui] = byDst[u.Key[0]]
		default:
			us.members[ui] = bySrc[u.Key[0]]
		}
	}
	return us
}

// pairVolumes multiplies the mean pair volumes by per-pair factors (nil
// means 1 everywhere).
func (us unitScales) pairVolumes(f []float64) []float64 {
	if f == nil {
		return us.pv.Items
	}
	vols := make([]float64, len(us.pv.Items))
	for k, m := range us.pv.Items {
		vols[k] = m * f[k]
	}
	return vols
}

// unitVolumes scales the base per-unit volumes by each unit's member-pair
// volume over its member-pair mean.
func (us unitScales) unitVolumes(base, vols []float64) []float64 {
	out := make([]float64, len(us.members))
	for ui, ks := range us.members {
		var v, m float64
		for _, k := range ks {
			v += vols[k]
			m += us.pv.Items[k]
		}
		out[ui] = base[ui]
		if m > 0 {
			out[ui] = base[ui] * (v / m)
		}
	}
	return out
}

// run drives c through the given number of epochs, stepping the driver at
// the top of each, and returns one record per epoch.
func (c *Cluster) run(step stepper, epochs int) ([]ScenarioEpoch, error) {
	out := make([]ScenarioEpoch, 0, epochs)
	for e := 0; e < epochs; e++ {
		c.epoch++
		c.opts.Ledger.SetRun(c.epoch)
		c.epochC.Add(1)
		c.epochSpan = c.opts.Trace.Epoch(c.epoch)

		env := &ScenarioEnv{
			Epoch: c.epoch, Epochs: epochs, Nodes: len(c.agents),
			inst: c.inst, plan: c.plan, hasher: hashing.Hasher{Key: hashKey},
		}
		if d := c.dyn; d != nil {
			env.Pairs, env.PairMeans, env.shed = d.scaler.pv.Pairs, d.scaler.pv.Items, d.lastShed
		}
		st, pairVols := step(env)
		ep, err := c.runEpoch(st, pairVols)
		if err != nil {
			return nil, err
		}
		out = append(out, ep)
	}
	return out, nil
}

// runEpoch runs one epoch's phases under the given stimulus.
func (c *Cluster) runEpoch(st Stimulus, pairVols []float64) (ScenarioEpoch, error) {
	ep := ScenarioEpoch{
		Epoch: c.epoch, CtrlDown: st.Faults.ControllerDown, Injected: len(st.Inject),
		AgentEpochs: make([]uint64, len(c.agents)),
	}
	c.epochSpan.Event(trace.EvEpochStart,
		trace.Int("ctrl_down", boolToInt(ep.CtrlDown)),
		trace.Int("down", len(st.Faults.DownNodes)), trace.Int("drains", len(st.Drains)))
	if ep.Injected > 0 {
		c.epochSpan.Event(trace.EvInject, trace.Int("count", ep.Injected))
	}

	// Faults and drains. A crash loses the in-memory manifest; a drain
	// keeps it. A node both crashed and drained counts as crashed.
	c.gate.SetOpen(!st.Faults.ControllerDown)
	for j, a := range c.agents {
		wasDown := a.down
		crashed := st.Faults.Down(j)
		drained := !crashed && slices.Contains(st.Drains, j)
		a.down = crashed || drained
		if crashed {
			ep.DownNodes = append(ep.DownNodes, j)
			if !wasDown {
				a.restart()
				a.staleEpochs = 0
				c.epochSpan.Child("agent", j).Event(trace.EvCrashRestart)
			}
		} else if drained {
			ep.Drained = append(ep.Drained, j)
			if !wasDown {
				c.epochSpan.Child("agent", j).Event(trace.EvDrain)
				c.fleetDrainFarewell(a)
			}
		}
	}

	// Offered volumes → drift → replan → govern and shed.
	var attests []governor.Attestation
	if d := c.dyn; d != nil {
		if st.PairScale != nil && len(st.PairScale) != len(d.scaler.pv.Pairs) {
			return ep, fmt.Errorf("cluster: epoch %d: %d pair scales for %d pairs",
				ep.Epoch, len(st.PairScale), len(d.scaler.pv.Pairs))
		}
		if pairVols == nil {
			pairVols = d.scaler.pairVolumes(st.PairScale)
		}
		obsPkts, err := c.observe(&ep, pairVols, st.Inject)
		if err != nil {
			return ep, err
		}
		if attests, err = c.govern(&ep, obsPkts); err != nil {
			return ep, err
		}
	}
	ep.ControllerEpoch = c.ctrl.Epoch()

	// Fetch through the (possibly gated, possibly faulty) wire, exactly
	// once per epoch: the seeded fault streams are consumed per exchange.
	c.fetchPhase()
	for j, a := range c.agents {
		ep.FetchAttempts += a.tally.attempts
		if a.tally.attempts > 1 {
			c.fetchRetryC.Add(int64(a.tally.attempts - 1))
		}
		ep.FetchFailures += a.tally.failures
		ep.FetchTimeouts += a.tally.timeouts
		if !a.down {
			switch {
			case a.tally.synced:
				ep.SyncedAgents++
			case a.Usable():
				ep.StaleAgents++
				a.span.Event(trace.EvStaleGrace, trace.Int("stale", a.staleEpochs))
			default:
				ep.DarkAgents++
				a.span.Event(trace.EvWentDark, trace.Int("stale", a.staleEpochs))
			}
		}
		width := 0.0
		c.usable[j] = nil
		if a.Usable() {
			d := a.Decider()
			c.usable[j] = d
			ep.AgentEpochs[j] = d.Epoch()
			width = d.AssignedWidth()
		}
		c.widthG[j].Set(width)
	}
	c.fetchAttemptC.Add(int64(ep.FetchAttempts))
	c.fetchFailureC.Add(int64(ep.FetchFailures))
	c.fetchTimeoutC.Add(int64(ep.FetchTimeouts))
	c.staleG.Set(float64(ep.StaleAgents))
	c.darkG.Set(float64(ep.DarkAgents))

	if c.dyn == nil || c.dyn.cfg.DataPlane {
		c.dataPhase(&ep, st.Inject)
	}

	// Evasion audit: an injected session is caught when its hash point lies
	// in the achieved set of its unit for some matching class.
	hasher := hashing.Hasher{Key: hashKey}
	var set hashing.RangeSet
	for _, s := range st.Inject {
		for ci := range c.inst.Classes {
			if !c.inst.Classes[ci].Matches(s) {
				continue
			}
			ui, ok := c.inst.UnitFor(ci, s)
			if !ok {
				continue
			}
			if set = c.achieved(ui, set[:0]); set.Contains(c.inst.Classes[ci].HashOf(hasher, s.Tuple)) {
				ep.InjectedCaught++
				break
			}
		}
	}
	ep.InjectedEvaded = ep.Injected - ep.InjectedCaught

	// Coverage audit: what the wire delivers vs what the published state
	// promises for the epoch's up set, over the same probe grid. The
	// expectation subtracts downed nodes and published shed, so a predicted
	// dip is not a breach; anything below it means manifests and reality
	// disagree — the violation the flight recorder exists for.
	ep.WorstCoverage, ep.AvgCoverage = core.ProbeCoverage(len(c.inst.Units), c.opts.Probes, c.achieved)
	ep.ExpectedWorst, ep.ExpectedAvg = core.ProbeCoverage(len(c.inst.Units), c.opts.Probes, c.expected)
	c.covWorstG.Set(ep.WorstCoverage)
	c.covAvgG.Set(ep.AvgCoverage)
	c.epochSpan.Event(trace.EvCoverage,
		trace.F64("worst", ep.WorstCoverage), trace.F64("avg", ep.AvgCoverage),
		trace.F64("expected_worst", ep.ExpectedWorst))
	if ep.WorstCoverage < ep.ExpectedWorst-1e-9 {
		ep.Breach = true
		c.epochSpan.Event(trace.EvCoverageViolation,
			trace.F64("worst", ep.WorstCoverage), trace.F64("expected", ep.ExpectedWorst))
		c.opts.Trace.DumpOnce("coverage_violation")
	}

	for _, v := range c.opts.Watchdog.Check(c.epochSpan, trace.EpochStats{
		WorstCoverage: ep.WorstCoverage, AvgCoverage: ep.AvgCoverage,
		ShedWidth: ep.ShedWidth, ReplanIters: ep.ReplanIters,
		FetchFailures: ep.FetchFailures, DarkAgents: ep.DarkAgents,
		DeadlineMiss: ep.ReplanMissed,
	}) {
		ep.SLOViolations = append(ep.SLOViolations, v.String())
	}
	if len(ep.SLOViolations) > 0 {
		c.opts.Trace.DumpOnce("slo_violation")
	}
	c.commitVerdict(&ep, attests)
	c.sampleFleet()
	return ep, nil
}

// observe computes the epoch's observed per-unit packet volumes — the pair
// volumes scaled off the original workload, plus the injected sessions'
// contributions to every matching class (injections never mutate the
// planning instance) — and folds them into the EWMA detector. On sustained
// drift with replanning on it re-solves on the smoothed volumes
// (warm-started from the current plan's basis when configured) under the
// iteration deadline. Success publishes fresh manifests through the normal
// epoch protocol; a missed deadline abandons the solve — the published shed
// state already bounds every node's load.
func (c *Cluster) observe(ep *ScenarioEpoch, pairVols []float64, inject []traffic.Session) ([]float64, error) {
	d := c.dyn
	obsPkts := d.scaler.unitVolumes(d.origPkts, pairVols)
	for _, s := range inject {
		for ci := range c.inst.Classes {
			if !c.inst.Classes[ci].Matches(s) {
				continue
			}
			if ui, ok := c.inst.UnitFor(ci, s); ok {
				obsPkts[ui] += float64(s.Packets)
			}
		}
	}
	ep.MaxRelErr = d.detector.Observe(obsPkts)
	ep.Drifted = d.detector.Drifted()
	c.epochSpan.Event(trace.EvDrift,
		trace.F64("rel_err", ep.MaxRelErr), trace.Int("drifted", boolToInt(ep.Drifted)))
	if !d.cfg.Replan || !ep.Drifted {
		return obsPkts, nil
	}
	smPkts := d.detector.Smoothed()
	smItems := make([]float64, len(smPkts))
	for ui := range smItems {
		if d.origPkts[ui] > 0 {
			smItems[ui] = d.origItems[ui] * smPkts[ui] / d.origPkts[ui]
		} else {
			smItems[ui] = d.origItems[ui]
		}
	}
	inst2, err := c.inst.WithVolumes(smPkts, smItems)
	if err != nil {
		return nil, err
	}
	sopts := core.SolveOptions{
		Redundancy: c.opts.Redundancy, MaxIters: d.cfg.ReplanMaxIters,
		Metrics: c.opts.Metrics, CaptureBasis: true,
	}
	if d.cfg.WarmReplan {
		sopts.WarmBasis = c.plan.Basis
	}
	plan2, err := core.SolveOpts(inst2, sopts)
	switch {
	case err == nil:
		c.plan, c.inst = plan2, inst2
		// Clears published shed, bumps the controller epoch, and stamps
		// this epoch's publish span on served manifests.
		c.publish(ep.Epoch, plan2)
		d.detector.Rebase(smPkts)
		if err := c.buildGovernors(); err != nil {
			return nil, err
		}
		ep.Replanned = true
		ep.ReplanWarm = sopts.WarmBasis != nil
		ep.ReplanIters = plan2.SolverIters
		c.opts.Metrics.Add("cluster.replans", 1)
		metric, ev := "cluster.replan_iters_cold", trace.EvReplanCold
		if ep.ReplanWarm {
			metric, ev = "cluster.replan_iters_warm", trace.EvReplanWarm
		}
		c.opts.Metrics.Add(metric, int64(ep.ReplanIters))
		c.epochSpan.Event(ev, trace.Int("iters", ep.ReplanIters))
	case errors.Is(err, lp.ErrIterLimit):
		ep.ReplanMissed = true
		c.opts.Metrics.Add("cluster.replan_misses", 1)
		c.epochSpan.Event(trace.EvDeadlineMiss, trace.Int("max_iters", d.cfg.ReplanMaxIters))
		c.opts.Trace.DumpOnce("deadline_miss")
	default:
		return nil, fmt.Errorf("cluster: replan: %w", err)
	}
	return obsPkts, nil
}

// govern projects each node's load at the offered volumes relative to the
// *current* plan and, with the governor on, sheds what is over budget and
// publishes it. With the governor off the run still reports the raw
// projection (the exceeds-budget baseline) but nothing sheds. The returned
// attestations (ledger-on, governor-on only) go into the epoch's verdict
// record.
func (c *Cluster) govern(ep *ScenarioEpoch, obsPkts []float64) ([]governor.Attestation, error) {
	d := c.dyn
	scVsPlan := make([]float64, len(obsPkts))
	for ui := range scVsPlan {
		if p := c.inst.Units[ui].Pkts; p > 0 {
			scVsPlan[ui] = obsPkts[ui] / p
		} else {
			scVsPlan[ui] = 1
		}
	}
	ctrlSpan := c.epochSpan.Child("controller", -1)
	if ctrlSpan.Live() {
		// Shed publishes below serve manifests under this epoch's
		// controller span, so re-fetching agents stitch to it.
		c.ctrl.SetTrace(&control.WireTrace{Trace: ctrlSpan.TraceHex(), Span: ctrlSpan.SpanHex()})
	}
	ep.NodeLoads = make([]float64, len(d.govs))
	ep.NodeBudgets = make([]float64, len(d.govs))
	var attests []governor.Attestation
	protect := c.unconfirmedFloor()
	for j, g := range d.govs {
		g.AttachSpan(c.epochSpan.Child("governor", j))
		g.Protect(protect)
		grep, err := g.PlanEpoch(scVsPlan)
		if err != nil {
			return nil, err
		}
		ep.NodeBudgets[j] = grep.BudgetCPU
		ep.NodeLoads[j] = grep.ProjectedCPU
		c.agents[j].lastFloor = d.cfg.Governor && !grep.Satisfied
		d.lastShed[j] = nil
		if d.cfg.Governor {
			if c.opts.Ledger != nil {
				attests = append(attests, g.Attest(grep))
			}
			ep.NodeLoads[j] = grep.CPUAfter
			ep.ShedWidth += grep.ShedWidth
			if !grep.Satisfied {
				// Floor breach: the r=1 coverage floor is all that is left
				// and the node still projects hot.
				ep.Unsatisfied++
				c.opts.Trace.DumpOnce("floor_breach")
			}
			shed := g.ShedRanges()
			wa := control.ShedFromRanges(c.plan, shed)
			if len(wa) > 0 {
				ctrlSpan.Event(trace.EvShedPublish,
					trace.Int("node", j), trace.F64("width", grep.ShedWidth))
			}
			c.ctrl.PublishShed(j, wa)
			d.lastShed[j] = shed
		}
		if ep.NodeLoads[j] > grep.BudgetCPU*(1+governor.Tolerance)+1e-9 {
			ep.OverBudget++
		}
	}
	c.opts.Metrics.Set("cluster.shed_width", ep.ShedWidth)
	return attests, nil
}

// achieved appends unit ui's covered hash space as the wire delivers it:
// each usable agent's enforced ranges minus what its governor shed.
func (c *Cluster) achieved(ui int, dst hashing.RangeSet) hashing.RangeSet {
	u := c.inst.Units[ui]
	for _, node := range u.Nodes {
		if d := c.usable[node]; d != nil {
			c.own = d.UnitRanges(c.own[:0], u.Class, u.Key)
			dst = c.own.AppendSubtract(dst, c.shedOf(node, ui))
		}
	}
	return dst
}

// expected appends unit ui's covered hash space as the published state
// promises it: every up node's planned ranges minus its shed.
func (c *Cluster) expected(ui int, dst hashing.RangeSet) hashing.RangeSet {
	for _, node := range c.inst.Units[ui].Nodes {
		if !c.agents[node].down {
			dst = c.plan.Manifests[node].Ranges[ui].AppendSubtract(dst, c.shedOf(node, ui))
		}
	}
	return dst
}

// shedOf returns the ranges of unit ui the node's governor shed this epoch
// (nil while the governors only project).
func (c *Cluster) shedOf(node, ui int) hashing.RangeSet {
	if c.dyn == nil {
		return nil
	}
	return c.dyn.lastShed[node][ui]
}

// unconfirmedFloor returns, per unit, the parts of the current plan's
// copy-0 ranges that their owner does not enforce yet. Governing runs
// before the epoch's fetch, so right after a replan every up agent still
// enforces its old manifest, and one whose fetch then fails keeps doing
// so. Were another node to shed its copy of such a range, the range would
// go unanalysed for as long as the owner stays behind; protected, it keeps
// that copy until the owner has fetched the plan. Not counted: an agent
// holding the controller's current generation (it enforces all of its
// floor), a down node (its loss is the expected one) and an agent with no
// manifest yet (it enforces nothing whatever the governors do, and the
// audit reports it dark).
func (c *Cluster) unconfirmedFloor() map[int]hashing.RangeSet {
	var out map[int]hashing.RangeSet
	for j, a := range c.agents {
		d := a.Decider()
		if a.down || d == nil || d.Epoch() == c.ctrl.Epoch() {
			continue
		}
		for _, ms := range c.dyn.floor[j] {
			u := c.inst.Units[ms.Unit]
			c.own = d.UnitRanges(c.own[:0], u.Class, u.Key)
			if rs := (hashing.RangeSet{ms.Range}).Subtract(c.own); len(rs) > 0 {
				if out == nil {
					out = make(map[int]hashing.RangeSet)
				}
				out[ms.Unit] = append(out[ms.Unit], rs...)
			}
		}
	}
	return out
}

// dataPhase runs each usable agent's engine over its base trace plus the
// epoch's injected sessions routed along their Src->Dst paths, exactly as a
// deployed node enforces its fetched wire manifest: the engine sees only
// the control.Decider, never the planner's objects. Injection order is
// preserved per node, so the combined trace — and with it the engine
// report — is a pure function of the stimulus.
func (c *Cluster) dataPhase(ep *ScenarioEpoch, inject []traffic.Session) {
	n := len(c.agents)
	routed := make([][]traffic.Session, n)
	for _, s := range inject {
		for _, node := range c.paths[s.Src][s.Dst] {
			routed[node] = append(routed[node], s)
		}
	}
	reports := parallel.Map(parallel.Resolve(c.opts.Workers, n), n, func(j int) bro.Report {
		a := c.agents[j]
		if !a.Usable() {
			return bro.Report{Node: j}
		}
		tr := a.trace
		if len(routed[j]) > 0 {
			tr = make([]traffic.Session, 0, len(a.trace)+len(routed[j]))
			tr = append(tr, a.trace...)
			tr = append(tr, routed[j]...)
		}
		return bro.Run(bro.Config{
			Mode:    bro.ModeCoordEvent,
			Modules: c.opts.Modules,
			Decider: a.Decider(),
			Node:    j,
			Hasher:  hashing.Hasher{Key: hashKey},
			Metrics: c.opts.Metrics,
			Trace:   a.span,
		}, tr)
	})
	for j, r := range reports {
		c.agents[j].lastEngine = r
		ep.Alerts += r.Alerts
		if r.CPUUnits > ep.MaxCPU {
			ep.MaxCPU = r.CPUUnits
		}
	}
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
