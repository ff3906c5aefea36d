// Package experiments contains one runner per table and figure of the
// paper's evaluation (Sections 2.4, 3.4, 3.5). Each runner returns typed
// rows that print as the same series the paper plots; cmd/experiments and
// the repository-root benchmarks are thin wrappers around these functions.
//
// Every runner takes a Config whose Quick form shrinks workload sizes so
// the full suite completes in minutes on one core with the pure-Go LP
// solver; Full form uses paper-scale parameters where feasible and the
// documented reductions where not (see the Scale note in DESIGN.md).
package experiments

import (
	"fmt"
	"math"
	"time"

	"nwdeploy/internal/bro"
	"nwdeploy/internal/core"
	"nwdeploy/internal/nips"
	"nwdeploy/internal/obs"
	"nwdeploy/internal/online"
	"nwdeploy/internal/parallel"
	"nwdeploy/internal/topology"
	"nwdeploy/internal/trace"
	"nwdeploy/internal/traffic"
)

// Config selects experiment scale.
type Config struct {
	// Quick selects reduced sizes (seconds per experiment); otherwise the
	// full evaluation sizes are used (minutes).
	Quick bool
	// Workers sizes the worker pool each runner fans its independent work
	// items out on: 0 selects GOMAXPROCS, 1 the serial legacy path. Every
	// runner derives per-item RNGs from fixed seeds and merges results in
	// canonical index order, so rows are byte-identical for every value.
	Workers int
	// Metrics, when non-nil, is threaded into the solver and emulation
	// runs so one registry accumulates counters across the whole suite.
	// Rows are byte-identical with or without it (nil is the no-op
	// default; see internal/obs).
	Metrics *obs.Registry
	// Trace, when non-nil, records the causal event log of every cluster
	// run the Scenarios runner makes (nil is the no-op
	// default; see internal/trace). Because the suite's runners share one
	// tracer, callers that set it must run the experiment blocks serially
	// to keep component sequences — and so dumps — deterministic.
	Trace *trace.Tracer
}

func (c Config) sessions(full int) int {
	if c.Quick {
		return full / 10
	}
	return full
}

// ---------------------------------------------------------------------------
// Figure 5: standalone microbenchmarks of the coordination overhead.
// ---------------------------------------------------------------------------

// Fig5Row is one module's overhead under the two check placements, the
// series of Figures 5(a) and 5(b).
type Fig5Row struct {
	Module    string
	PolicyCPU float64 // CPU overhead, checks in the policy engine
	EventCPU  float64 // CPU overhead, checks as early as possible
	PolicyMem float64
	EventMem  float64
}

// Fig5 runs each standard module in isolation on a mixed trace, comparing
// the coordination-enabled prototypes against unmodified Bro. The paper
// reports mean/min/max over 5 runs of a 100,000-session trace; the
// simulator is deterministic, so single values are exact.
func Fig5(cfg Config) []Fig5Row {
	topo := topology.Internet2()
	sessions := traffic.Generate(topo, traffic.Gravity(topo), traffic.GenConfig{
		Sessions: cfg.sessions(100000),
		Seed:     51,
	})
	mods := bro.StandardModules()
	return parallel.Map(cfg.Workers, len(mods), func(i int) Fig5Row {
		m := mods[i]
		pol := bro.MeasureOverhead(m, bro.ModeCoordPolicy, sessions)
		evt := bro.MeasureOverhead(m, bro.ModeCoordEvent, sessions)
		return Fig5Row{
			Module:    m.Name,
			PolicyCPU: pol.CPURatio,
			EventCPU:  evt.CPURatio,
			PolicyMem: pol.MemRatio,
			EventMem:  evt.MemRatio,
		}
	})
}

// ---------------------------------------------------------------------------
// Figures 6-8: network-wide emulation on Internet2.
// ---------------------------------------------------------------------------

// ScalingRow compares the maximum per-node footprints of the edge-only and
// coordinated deployments at one sweep point (Figures 6 and 7).
type ScalingRow struct {
	Modules  int
	Sessions int
	EdgeMem  float64
	CoordMem float64
	EdgeCPU  float64
	CoordCPU float64
}

// runEmulation builds the scenario and runs both deployments on the
// configured worker pool.
func runEmulation(cfg Config, modules []bro.ModuleSpec, sessions []traffic.Session) (edge, coord *bro.EmulationResult, err error) {
	topo := topology.Internet2()
	em, err := bro.NewEmulation(topo, modules, sessions, core.UniformCaps(topo.N(), 1e9, 1e12))
	if err != nil {
		return nil, nil, err
	}
	em.Workers = cfg.Workers
	em.Metrics = cfg.Metrics
	return em.Run(bro.DeployEdge), em.Run(bro.DeployCoordinated), nil
}

// Fig6 sweeps the number of NIDS modules at fixed traffic volume
// (100,000 sessions in the paper), duplicating HTTP/IRC/Login/TFTP
// instances to grow the set, and reports the maximum per-node footprints.
func Fig6(cfg Config) ([]ScalingRow, error) {
	topo := topology.Internet2()
	nSessions := cfg.sessions(100000)
	sessions := traffic.Generate(topo, traffic.Gravity(topo), traffic.GenConfig{Sessions: nSessions, Seed: 61})
	counts := []int{8, 10, 12, 14, 16, 18, 20, 21}
	if cfg.Quick {
		counts = []int{8, 12, 16, 21}
	}
	var rows []ScalingRow
	for _, n := range counts {
		mods := bro.ModuleSubset(n + 1)[1:] // skip the baseline pseudo-module
		edge, coord, err := runEmulation(cfg, mods, sessions)
		if err != nil {
			return nil, fmt.Errorf("fig6 at %d modules: %w", n, err)
		}
		rows = append(rows, ScalingRow{
			Modules: n, Sessions: nSessions,
			EdgeMem: edge.MaxMem(), CoordMem: coord.MaxMem(),
			EdgeCPU: edge.MaxCPU(), CoordCPU: coord.MaxCPU(),
		})
	}
	return rows, nil
}

// Fig7 sweeps the total traffic volume at the full 21-module configuration.
func Fig7(cfg Config) ([]ScalingRow, error) {
	topo := topology.Internet2()
	volumes := []int{20000, 40000, 60000, 80000, 100000}
	if cfg.Quick {
		volumes = []int{2000, 5000, 8000, 10000}
	}
	mods := bro.ModuleSubset(22)[1:] // 21 deployable modules
	var rows []ScalingRow
	for _, v := range volumes {
		sessions := traffic.Generate(topo, traffic.Gravity(topo), traffic.GenConfig{Sessions: v, Seed: 71})
		edge, coord, err := runEmulation(cfg, mods, sessions)
		if err != nil {
			return nil, fmt.Errorf("fig7 at %d sessions: %w", v, err)
		}
		rows = append(rows, ScalingRow{
			Modules: 21, Sessions: v,
			EdgeMem: edge.MaxMem(), CoordMem: coord.MaxMem(),
			EdgeCPU: edge.MaxCPU(), CoordCPU: coord.MaxCPU(),
		})
	}
	return rows, nil
}

// Fig8Row is one node's footprint under both deployments (Figure 8's
// per-location breakdown).
type Fig8Row struct {
	Node     int
	City     string
	EdgeMem  float64
	CoordMem float64
	EdgeCPU  float64
	CoordCPU float64
}

// Fig8 reports per-node loads for the 21-module, 100,000-session
// configuration; the edge deployment's hotspot is New York.
func Fig8(cfg Config) ([]Fig8Row, error) {
	topo := topology.Internet2()
	sessions := traffic.Generate(topo, traffic.Gravity(topo), traffic.GenConfig{
		Sessions: cfg.sessions(100000), Seed: 81,
	})
	mods := bro.ModuleSubset(22)[1:]
	edge, coord, err := runEmulation(cfg, mods, sessions)
	if err != nil {
		return nil, err
	}
	var rows []Fig8Row
	for j := 0; j < topo.N(); j++ {
		rows = append(rows, Fig8Row{
			Node: j, City: topo.Nodes[j].City,
			EdgeMem: edge.Reports[j].MemBytes, CoordMem: coord.Reports[j].MemBytes,
			EdgeCPU: edge.Reports[j].CPUUnits, CoordCPU: coord.Reports[j].CPUUnits,
		})
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Optimization-time table entries (Sections 2.4 and 3.4).
// ---------------------------------------------------------------------------

// OptTime records one optimization-time measurement.
type OptTime struct {
	Problem string
	Nodes   int
	Vars    int
	Rows    int
	Seconds float64
	// PaperSeconds is the paper's reported figure for context (CPLEX on a
	// full-size instance: 0.42 s NIDS, ~220 s NIPS, both 50 nodes).
	PaperSeconds float64
}

// NIDSOptTime times the NIDS LP solve on a 50-node topology, the paper's
// "0.42 seconds ... for a 50-node topology" measurement. The gravity
// matrix is truncated to the heaviest pairs in quick mode.
func NIDSOptTime(cfg Config) (OptTime, error) {
	topo := topology.FiftyNode()
	tm := traffic.Gravity(topo)
	maxPairs := 400
	nSessions := 40000
	if cfg.Quick {
		maxPairs = 120
		nSessions = 8000
	}
	tm = truncateMatrix(tm, maxPairs)
	sessions := traffic.Generate(topo, tm, traffic.GenConfig{Sessions: nSessions, Seed: 91})
	classes := bro.Classes(bro.StandardModules()[1:])
	inst, err := core.BuildInstance(topo, classes, sessions, core.UniformCaps(topo.N(), 1e7, 1e9))
	if err != nil {
		return OptTime{}, err
	}
	start := time.Now()
	plan, err := core.SolveOpts(inst, core.SolveOptions{Metrics: cfg.Metrics})
	if err != nil {
		return OptTime{}, err
	}
	nVars := 0
	for _, u := range inst.Units {
		nVars += len(u.Nodes)
	}
	return OptTime{
		Problem: "nids-lp", Nodes: topo.N(),
		Vars: nVars + 1, Rows: len(inst.Units) + 2*topo.N(),
		Seconds:      time.Since(start).Seconds(),
		PaperSeconds: 0.42,
	}, err2(plan)
}

func err2(p *core.Plan) error {
	if p == nil {
		return fmt.Errorf("experiments: nil plan")
	}
	return nil
}

// NIPSOptTime times the NIPS pipeline (relaxation + rounding + greedy +
// re-solve) on a 50-node topology, the paper's ~220 s measurement.
func NIPSOptTime(cfg Config) (OptTime, error) {
	topo := topology.FiftyNode()
	rules, paths := 20, 40
	if cfg.Quick {
		rules, paths = 10, 20
	}
	inst := nips.NewInstance(topo, nips.UnitRules(rules), nips.Config{
		MaxPaths:             paths,
		RuleCapacityFraction: 0.1,
		MatchSeed:            17,
	})
	start := time.Now()
	dep, rel, err := nips.Solve(inst, nips.SolveOptions{
		Variant: nips.VariantRoundGreedyLP, Iters: 1, Seed: 2, Workers: cfg.Workers,
		Metrics: cfg.Metrics,
	})
	if err != nil {
		return OptTime{}, err
	}
	_ = dep
	return OptTime{
		Problem: "nips-milp-approx", Nodes: topo.N(),
		Vars: rules * (paths*4 + topo.N()), Rows: rel.Iters,
		Seconds:      time.Since(start).Seconds(),
		PaperSeconds: 220,
	}, nil
}

// truncateMatrix keeps the top-k pairs of the matrix, renormalized. A
// matrix whose top-k pairs carry no mass (all-zero demand, or k <= 0)
// yields the zero matrix rather than NaN entries from a 0/0 division.
func truncateMatrix(m traffic.Matrix, k int) traffic.Matrix {
	pairs := m.TopPairs(k)
	out := make(traffic.Matrix, len(m))
	for a := range out {
		out[a] = make([]float64, len(m[a]))
	}
	var sum float64
	for _, p := range pairs {
		sum += m[p[0]][p[1]]
	}
	if sum <= 0 {
		return out
	}
	for _, p := range pairs {
		out[p[0]][p[1]] = m[p[0]][p[1]] / sum
	}
	return out
}

// ---------------------------------------------------------------------------
// Figure 10: NIPS rounding optimality gap across topologies.
// ---------------------------------------------------------------------------

// Fig10Row aggregates one (topology, rule-capacity, variant) cell: the
// mean/min/max fraction of the LP upper bound across match-rate scenarios.
type Fig10Row struct {
	Topology string
	CapFrac  float64
	Variant  nips.Variant
	Mean     float64
	Min      float64
	Max      float64
}

// Fig10Topologies returns the evaluation topologies: Internet2 (Abilene),
// Geant, and the Rocketfuel stand-ins.
func Fig10Topologies(cfg Config) []*topology.Topology {
	if cfg.Quick {
		return []*topology.Topology{topology.Internet2(), topology.Geant()}
	}
	return []*topology.Topology{
		topology.Internet2(),
		topology.Geant(),
		topology.RocketfuelLike(topology.AS1221),
		topology.RocketfuelLike(topology.AS1239),
		topology.RocketfuelLike(topology.AS3257),
	}
}

// Fig10 reproduces both panels: for each topology and rule-capacity
// fraction, it solves the relaxation per scenario, runs the rounding
// variants, and reports the best-of-iterations objective as a fraction of
// OptLP. Scale note: the paper uses 100 rules, all paths, 30 scenarios and
// 10 iterations on CPLEX; with the pure-Go simplex the defaults are 15-20
// rules, the heaviest paths, and fewer scenarios/iterations — the
// approximation-gap shape is preserved (see DESIGN.md).
func Fig10(cfg Config) ([]Fig10Row, error) {
	// Rule counts are chosen so the smallest capacity fraction still
	// yields at least one whole TCAM slot per node (the paper's 100 rules
	// give 5 slots at fraction 0.05).
	rules, paths, scenarios, iters := 20, 25, 5, 5
	capFracs := []float64{0.05, 0.1, 0.15, 0.2, 0.25}
	if cfg.Quick {
		rules, paths, scenarios, iters = 20, 12, 2, 3
		capFracs = []float64{0.05, 0.15, 0.25}
	}
	variants := []nips.Variant{nips.VariantRoundLP, nips.VariantRoundGreedyLP}
	topos := Fig10Topologies(cfg)

	// One grid cell per (topology, capacity fraction, scenario). Cells are
	// RNG-independent — each derives its rounding seeds from its own
	// scenario and variant indices — so they fan out on the worker pool and
	// the per-(topology, fraction, variant) aggregates are folded serially
	// in canonical order afterwards, keeping rows byte-identical for every
	// worker count.
	type cell struct{ ti, fi, s int }
	var cells []cell
	for ti := range topos {
		for fi := range capFracs {
			for s := 0; s < scenarios; s++ {
				cells = append(cells, cell{ti, fi, s})
			}
		}
	}
	cellWorkers := parallel.Resolve(cfg.Workers, len(cells))
	// When the grid saturates the pool, keep each cell's rounding sweep
	// serial; a lone cell worker instead parallelizes inside the solve.
	solveWorkers := 1
	if cellWorkers == 1 {
		solveWorkers = cfg.Workers
	}
	ratios, err := parallel.MapErr(cellWorkers, len(cells), func(ci int) ([]float64, error) {
		c := cells[ci]
		topo := topos[c.ti]
		inst := nips.NewInstance(topo, nips.UnitRules(rules), nips.Config{
			MaxPaths:             paths,
			RuleCapacityFraction: capFracs[c.fi],
			MatchSeed:            int64(1000*c.s + 7),
		})
		rel, err := nips.SolveRelaxation(inst)
		if err != nil {
			return nil, fmt.Errorf("fig10 %s cap=%.2f scenario %d: %w", topo.Name, capFracs[c.fi], c.s, err)
		}
		out := make([]float64, len(variants))
		for vi, v := range variants {
			dep, err := nips.SolveFromRelaxation(inst, rel, nips.SolveOptions{
				Variant: v, Iters: iters,
				Seed:    int64(31*c.s + int(v) + 1),
				Workers: solveWorkers,
				Metrics: cfg.Metrics,
			})
			if err != nil {
				return nil, err
			}
			out[vi] = dep.Objective / rel.Objective
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	var rows []Fig10Row
	ci := 0
	for _, topo := range topos {
		for _, frac := range capFracs {
			stats := make([]*agg, len(variants))
			for vi := range variants {
				stats[vi] = newAgg()
			}
			for s := 0; s < scenarios; s++ {
				for vi := range variants {
					stats[vi].add(ratios[ci][vi])
				}
				ci++
			}
			for vi, v := range variants {
				rows = append(rows, Fig10Row{
					Topology: topo.Name, CapFrac: frac, Variant: v,
					Mean: stats[vi].mean(), Min: stats[vi].min, Max: stats[vi].max,
				})
			}
		}
	}
	return rows, nil
}

// Fig10RobustnessRow checks the paper's brevity note — "These results hold
// for other M_ik distributions as well" — by repeating one Figure 10 cell
// under uniform, exponential, and bimodal match-rate draws.
type Fig10RobustnessRow struct {
	Dist    traffic.MatchDist
	Variant nips.Variant
	Mean    float64
}

// Fig10Robustness runs the rounding variants on Internet2 at rule-capacity
// 0.15 under each match-rate distribution.
func Fig10Robustness(cfg Config) ([]Fig10RobustnessRow, error) {
	rules, paths, scenarios, iters := 20, 15, 3, 5
	if cfg.Quick {
		scenarios, iters = 2, 3
	}
	variants := []nips.Variant{nips.VariantRoundLP, nips.VariantRoundGreedyLP}
	dists := []traffic.MatchDist{traffic.DistUniform, traffic.DistExponential, traffic.DistBimodal}

	// Same (distribution × scenario) grid fan-out as Fig10; a cell whose
	// relaxation has zero objective returns nil ratios and is skipped in
	// the fold, matching the serial loop's continue.
	type cell struct{ di, s int }
	var cells []cell
	for di := range dists {
		for s := 0; s < scenarios; s++ {
			cells = append(cells, cell{di, s})
		}
	}
	cellWorkers := parallel.Resolve(cfg.Workers, len(cells))
	solveWorkers := 1
	if cellWorkers == 1 {
		solveWorkers = cfg.Workers
	}
	ratios, err := parallel.MapErr(cellWorkers, len(cells), func(ci int) ([]float64, error) {
		c := cells[ci]
		inst := nips.NewInstance(topology.Internet2(), nips.UnitRules(rules), nips.Config{
			MaxPaths:             paths,
			RuleCapacityFraction: 0.15,
			MatchSeed:            int64(500*c.s + 11),
			MatchDist:            dists[c.di],
		})
		rel, err := nips.SolveRelaxation(inst)
		if err != nil {
			return nil, fmt.Errorf("fig10robustness %v scenario %d: %w", dists[c.di], c.s, err)
		}
		if rel.Objective <= 0 {
			return nil, nil
		}
		out := make([]float64, len(variants))
		for vi, v := range variants {
			dep, err := nips.SolveFromRelaxation(inst, rel, nips.SolveOptions{
				Variant: v, Iters: iters,
				Seed:    int64(13*c.s + int(v) + 1),
				Workers: solveWorkers,
				Metrics: cfg.Metrics,
			})
			if err != nil {
				return nil, err
			}
			out[vi] = dep.Objective / rel.Objective
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	var rows []Fig10RobustnessRow
	ci := 0
	for _, dist := range dists {
		stats := make([]*agg, len(variants))
		for vi := range variants {
			stats[vi] = newAgg()
		}
		for s := 0; s < scenarios; s++ {
			if ratios[ci] != nil {
				for vi := range variants {
					stats[vi].add(ratios[ci][vi])
				}
			}
			ci++
		}
		for vi, v := range variants {
			rows = append(rows, Fig10RobustnessRow{Dist: dist, Variant: v, Mean: stats[vi].mean()})
		}
	}
	return rows, nil
}

type agg struct {
	sum, min, max float64
	n             int
}

func newAgg() *agg { return &agg{min: math.Inf(1), max: math.Inf(-1)} }

func (a *agg) add(x float64) {
	a.sum += x
	a.n++
	a.min = math.Min(a.min, x)
	a.max = math.Max(a.max, x)
}

func (a *agg) mean() float64 {
	if a.n == 0 {
		return 0
	}
	return a.sum / float64(a.n)
}

// ---------------------------------------------------------------------------
// Figure 11: online adaptation regret.
// ---------------------------------------------------------------------------

// Fig11Row is one run's regret series.
type Fig11Row struct {
	Run    int
	Series []online.RegretPoint
}

// Fig11 runs the FPL adaptation on the Internet2 setup without rule
// capacity constraints for several independent runs, reporting the
// normalized regret over time. The paper runs 1000 epochs and 5 runs.
func Fig11(cfg Config) ([]Fig11Row, error) {
	runs, epochs, rules, paths := 5, 1000, 8, 12
	sampleEvery := 50
	if cfg.Quick {
		runs, epochs, rules, paths = 3, 120, 5, 8
		sampleEvery = 20
	}
	inst := nips.NewInstance(topology.Internet2(), nips.UnitRules(rules), nips.Config{
		MaxPaths:             paths,
		RuleCapacityFraction: 1, // no TCAM constraint in Section 3.5
		MatchSeed:            3,
	})
	// Runs are independent by construction (each owns its seed), so they
	// fan out on the worker pool; rows keep run order.
	return parallel.MapErr(cfg.Workers, runs, func(r int) (Fig11Row, error) {
		series, err := online.Run(inst, online.RunConfig{
			Epochs:      epochs,
			SampleEvery: sampleEvery,
			Seed:        int64(1000 + 77*r),
		})
		if err != nil {
			return Fig11Row{}, fmt.Errorf("fig11 run %d: %w", r, err)
		}
		return Fig11Row{Run: r + 1, Series: series}, nil
	})
}

// ---------------------------------------------------------------------------
// Section 2.5: redundancy extension.
// ---------------------------------------------------------------------------

// RedundancyRow records how the minimized max load grows with the coverage
// level r.
type RedundancyRow struct {
	R       int
	MaxLoad float64
}

// Redundancy solves the NIDS LP at increasing coverage levels on
// path-scoped classes, demonstrating the Section 2.5 wraparound extension:
// load grows roughly linearly with r while every point in the hash space
// stays covered by r distinct nodes.
func Redundancy(cfg Config) ([]RedundancyRow, error) {
	topo := topology.Internet2()
	sessions := traffic.Generate(topo, traffic.Gravity(topo), traffic.GenConfig{
		Sessions: cfg.sessions(30000), Seed: 25,
	})
	// Path-scoped classes only: ingress/egress units have a single
	// eligible node and cannot be replicated.
	var classes []core.Class
	for _, c := range bro.Classes(bro.StandardModules()[1:]) {
		if c.Scope == core.PerPath {
			classes = append(classes, c)
		}
	}
	inst, err := core.BuildInstance(topo, classes, sessions, core.UniformCaps(topo.N(), 1e7, 1e9))
	if err != nil {
		return nil, err
	}
	// r is capped at 2: adjacent-node paths have exactly two on-path
	// locations, so higher replication levels are structurally infeasible
	// on this topology.
	var rows []RedundancyRow
	for r := 1; r <= 2; r++ {
		plan, err := core.SolveOpts(inst, core.SolveOptions{Redundancy: r, Metrics: cfg.Metrics})
		if err != nil {
			return nil, fmt.Errorf("redundancy r=%d: %w", r, err)
		}
		rows = append(rows, RedundancyRow{R: r, MaxLoad: plan.Objective})
	}
	return rows, nil
}
