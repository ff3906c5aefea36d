package nips

import (
	"fmt"
	"math/rand"
	"sort"

	"nwdeploy/internal/lp"
	"nwdeploy/internal/obs"
	"nwdeploy/internal/parallel"
)

// ResolveLP replaces a deployment's d values by the optimal ones for its
// fixed integral enablement: "a practical alternative is to solve the LP
// represented by Eqs (9)–(14) after setting the values for e_ij obtained in
// line 5 to be constants". With e fixed, the coupling rows disappear (a
// disabled e forces d = 0; an enabled one leaves d in [0,1]), so this LP is
// small and fast.
func ResolveLP(inst *Instance, dep *Deployment) error {
	return resolveLP(inst, dep, nil)
}

// resolveLP is ResolveLP with an optional metrics registry threaded into
// the LP solve (nil is the no-op registry).
func resolveLP(inst *Instance, dep *Deployment, metrics *obs.Registry) error {
	d, err := SolveSampling(inst, inst.objCoef, dep.E, metrics)
	if err != nil {
		return fmt.Errorf("nips: resolve LP: %w", err)
	}
	dep.D = d
	dep.Objective = Objective(inst, dep)
	return nil
}

// SolveSampling is the one builder of the d-only sampling LP, shared by the
// fixed-e re-solve (ResolveLP) and Section 3.5's Lambda: maximize the sum of
// coef(i, k, pos)·d_ikj subject to Eq. (11) per (rule, path) and Eqs.
// (9)–(10) per node. Only d whose rule is enabled at the node get a variable
// (a nil enabled enables every rule everywhere), and a one-term Eq. (11) row
// is left out, because the bound d <= 1 already says it. coef is called
// once per variable, in (rule, path, position) order. It returns D with the
// instance's rule/path/position shape, zero where no variable exists.
func SolveSampling(inst *Instance, coef func(i, k, pos int) float64, enabled [][]bool, metrics *obs.Registry) ([][][]float64, error) {
	p := lp.New(lp.Maximize)
	n := inst.Topo.N()
	memTerms := make([][]lp.Term, n)
	cpuTerms := make([][]lp.Term, n)
	d := make([][][]float64, len(inst.Rules))
	var cover []lp.Term // AddConstraint copies it, so one buffer serves every row
	for i := range inst.Rules {
		d[i] = make([][]float64, len(inst.Paths))
		for k, path := range inst.Paths {
			d[i][k] = make([]float64, len(path))
			cover = cover[:0]
			for pos, j := range path {
				if enabled != nil && !enabled[i][j] {
					continue
				}
				v := p.AddVar(coef(i, k, pos), 0, 1)
				cover = append(cover, lp.Term{Var: v, Coef: 1})
				memTerms[j] = append(memTerms[j], lp.Term{Var: v, Coef: inst.Items[k] * inst.Rules[i].MemPerItem})
				cpuTerms[j] = append(cpuTerms[j], lp.Term{Var: v, Coef: inst.Pkts[k] * inst.Rules[i].CPUPerPkt})
			}
			if len(cover) > 1 {
				p.AddConstraint(cover, lp.LE, 1)
			}
		}
	}
	if p.NumVars() == 0 {
		return d, nil // nothing enabled anywhere: nothing is sampled
	}
	for j := 0; j < n; j++ {
		if len(memTerms[j]) > 0 {
			p.AddConstraint(memTerms[j], lp.LE, inst.MemCap[j])
		}
		if len(cpuTerms[j]) > 0 {
			p.AddConstraint(cpuTerms[j], lp.LE, inst.CPUCap[j])
		}
	}
	sol, err := p.SolveOpts(lp.Options{Metrics: metrics})
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.StatusOptimal {
		return nil, sol.Status.Err()
	}
	x := sol.X
	for i := range d {
		for k, path := range inst.Paths {
			for pos, j := range path {
				if enabled == nil || enabled[i][j] {
					d[i][k][pos], x = clamp01(x[0]), x[1:]
				}
			}
		}
	}
	return d, nil
}

// GreedyFill sets additional e_ij to 1 while no TCAM constraint is
// violated, in descending order of each (rule, node) pair's potential
// objective gain: "we can greedily try to set e_ij s to 1 until no more can
// be set to 1 without violating Eq (8)". Call ResolveLP afterwards to pick
// the optimal d for the expanded enablement.
func GreedyFill(inst *Instance, dep *Deployment) {
	n := inst.Topo.N()
	used := make([]float64, n)
	for i := range dep.E {
		for j := 0; j < n; j++ {
			if dep.E[i][j] {
				used[j] += inst.Rules[i].CamReq
			}
		}
	}
	// Potential gain of enabling rule i at node j: the unclaimed objective
	// weight of paths through j (upper bound, ignoring capacity).
	type cand struct {
		i, j int
		gain float64
	}
	var cands []cand
	for i := range dep.E {
		for j := 0; j < n; j++ {
			if dep.E[i][j] {
				continue
			}
			var g float64
			for k, path := range inst.Paths {
				for pos, node := range path {
					if node == j {
						g += inst.objCoef(i, k, pos)
					}
				}
			}
			if g > 0 {
				cands = append(cands, cand{i, j, g})
			}
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].gain != cands[b].gain {
			return cands[a].gain > cands[b].gain
		}
		if cands[a].i != cands[b].i {
			return cands[a].i < cands[b].i
		}
		return cands[a].j < cands[b].j
	})
	for _, c := range cands {
		if used[c.j]+inst.Rules[c.i].CamReq <= inst.CamCap[c.j]+1e-9 {
			dep.E[c.i][c.j] = true
			used[c.j] += inst.Rules[c.i].CamReq
		}
	}
}

// Variant names one of the algorithm variants of the paper's Figure 10.
type Variant int

const (
	// VariantBasic is the plain Figure 9 rounding with conservative
	// rescaling.
	VariantBasic Variant = iota
	// VariantRoundLP is rounding followed by an LP re-solve of the d
	// values (Figure 10(a)).
	VariantRoundLP
	// VariantRoundGreedyLP adds the greedy enablement fill before the LP
	// re-solve (Figure 10(b)).
	VariantRoundGreedyLP
)

// String names the variant.
func (v Variant) String() string {
	switch v {
	case VariantBasic:
		return "rounding"
	case VariantRoundLP:
		return "rounding+lp"
	case VariantRoundGreedyLP:
		return "rounding+greedy+lp"
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// SolveOptions parameterizes Solve and SolveFromRelaxation.
type SolveOptions struct {
	// Variant selects the rounding/improvement pipeline.
	Variant Variant
	// Iters is the number of independent rounding iterations; the best
	// deployment across them is returned (0 selects 1).
	Iters int
	// Seed is the root of the per-iteration RNG derivation: iteration it
	// draws from rand.New(rand.NewSource(parallel.SplitSeed(Seed, it))),
	// never from a shared *rand.Rand. The result is therefore a pure
	// function of (instance, relaxation, options) regardless of Workers.
	Seed int64
	// Workers fans the iterations out across a worker pool: 0 selects
	// GOMAXPROCS, 1 is the serial path. Serial and parallel runs produce
	// byte-identical deployments for the same Seed.
	Workers int
	// Metrics, when non-nil, receives rounding-sweep observability:
	// iteration/trial/repair counts, LP re-solve counts, the best
	// objective, and solve wall time, plus the underlying lp solver's
	// counters. The registry is write-only, so deployments are identical
	// with or without it (nil is the no-op default; see internal/obs).
	Metrics *obs.Registry
}

// SolveStats itemizes the deterministic work of a rounding sweep. Every
// field is a pure function of (instance, relaxation, options): wall-clock
// readings go only to the Metrics registry, never here, so two runs with
// the same inputs — serial or parallel, instrumented or not — report
// identical stats.
type SolveStats struct {
	// Iterations is the number of independent rounding iterations run.
	Iterations int
	// Trials counts rounding trials across all iterations, including
	// restarts forced by the Figure 9 concentration check.
	Trials int
	// Repairs counts individual rule disables applied by the Eq. (8)
	// TCAM repair step.
	Repairs int
	// LPResolves counts the Figure 10 LP re-solves of the d values.
	LPResolves int
	// RelaxationIters is the simplex iteration count of the LP
	// relaxation (zero when the caller supplied the relaxation).
	RelaxationIters int
	// BestIteration is the index of the winning iteration.
	BestIteration int
	// BestTrajectory[i] is the best objective seen after iteration i —
	// the paper's "best solution across these 10 runs" curve.
	BestTrajectory []float64
}

// Result bundles a rounding sweep's outcome: the best deployment, the LP
// relaxation it was rounded from (whose Objective is the OptLP upper
// bound), and the work stats.
type Result struct {
	Deployment *Deployment
	Relaxation *Relaxation
	Stats      SolveStats
}

// Solve runs the requested variant: it solves the relaxation once, performs
// opts.Iters independent rounding trials, improves each per the variant, and
// returns the best deployment together with the LP upper bound. This is the
// paper's evaluation procedure ("we run 10 iterations of the
// rounding-based algorithms and take the best solution across these 10
// runs").
func Solve(inst *Instance, opts SolveOptions) (*Deployment, *Relaxation, error) {
	res, err := SolveDetailed(inst, opts)
	if err != nil {
		return nil, nil, err
	}
	return res.Deployment, res.Relaxation, nil
}

// SolveDetailed is Solve returning the full Result, including the work
// stats the bare Solve discards.
func SolveDetailed(inst *Instance, opts SolveOptions) (*Result, error) {
	sp := opts.Metrics.StartSpan("nips.solve_ns")
	defer sp.End()
	rel, err := solveRelaxation(inst, opts.Metrics)
	if err != nil {
		return nil, err
	}
	dep, stats, err := solveFromRelaxation(inst, rel, opts)
	if err != nil {
		return nil, err
	}
	stats.RelaxationIters = rel.Iters
	return &Result{Deployment: dep, Relaxation: rel, Stats: stats}, nil
}

// SolveFromRelaxation is Solve for callers that already hold the
// relaxation (the evaluation reuses one relaxation across variants).
//
// Each iteration is independent — its RNG is derived from opts.Seed and the
// iteration index — so the iterations run on the worker pool and the best
// deployment is selected in iteration order (strict improvement), making
// the winner identical whether the sweep ran on one worker or many.
func SolveFromRelaxation(inst *Instance, rel *Relaxation, opts SolveOptions) (*Deployment, error) {
	dep, _, err := solveFromRelaxation(inst, rel, opts)
	return dep, err
}

// solveFromRelaxation runs the rounding sweep and aggregates the
// per-iteration work counters in iteration order, so the stats (like the
// winning deployment) are identical for any Workers value.
func solveFromRelaxation(inst *Instance, rel *Relaxation, opts SolveOptions) (*Deployment, SolveStats, error) {
	iters := opts.Iters
	if iters <= 0 {
		iters = 1
	}
	results, err := parallel.MapErr(opts.Workers, iters, func(it int) (iterResult, error) {
		return solveOneIteration(inst, rel, opts.Variant, newSeededRand(parallel.SplitSeed(opts.Seed, int64(it))), opts.Metrics)
	})
	if err != nil {
		return nil, SolveStats{}, err
	}
	stats := SolveStats{Iterations: iters, BestTrajectory: make([]float64, 0, iters)}
	var best *Deployment
	for it, r := range results {
		stats.Trials += r.trials
		stats.Repairs += r.repairs
		stats.LPResolves += r.lpResolves
		if best == nil || r.dep.Objective > best.Objective {
			best = r.dep
			stats.BestIteration = it
		}
		stats.BestTrajectory = append(stats.BestTrajectory, best.Objective)
	}
	if m := opts.Metrics; m != nil {
		m.Add("nips.iterations", int64(stats.Iterations))
		m.Add("nips.round_trials", int64(stats.Trials))
		m.Add("nips.tcam_repairs", int64(stats.Repairs))
		m.Add("nips.lp_resolves", int64(stats.LPResolves))
		m.Gauge("nips.best_objective").Max(best.Objective)
		for _, r := range results {
			m.Observe("nips.iter_objective", int64(r.dep.Objective))
		}
	}
	return best, stats, nil
}

// iterResult is one iteration's deployment plus its work counters.
type iterResult struct {
	dep        *Deployment
	trials     int
	repairs    int
	lpResolves int
}

// solveOneIteration performs one rounding trial plus the variant's
// improvement steps. Only Round consumes randomness; GreedyFill and
// ResolveLP are deterministic. The metrics registry is forwarded to the
// inner LP solves only — per-iteration counts flow back through
// iterResult so they aggregate in iteration order.
func solveOneIteration(inst *Instance, rel *Relaxation, variant Variant, rng *rand.Rand, metrics *obs.Registry) (iterResult, error) {
	dep, rs, err := round(inst, rel, RoundConfig{}, rng)
	if err != nil {
		return iterResult{}, err
	}
	res := iterResult{dep: dep, trials: rs.trials, repairs: rs.repairs}
	switch variant {
	case VariantRoundLP:
		if err := resolveLP(inst, dep, metrics); err != nil {
			return iterResult{}, err
		}
		res.lpResolves = 1
	case VariantRoundGreedyLP:
		GreedyFill(inst, dep)
		if err := resolveLP(inst, dep, metrics); err != nil {
			return iterResult{}, err
		}
		res.lpResolves = 1
	}
	return res, nil
}
