// Package nips implements the paper's Section 3: network-wide deployment
// of intrusion prevention rules under TCAM, memory, and CPU budgets.
//
// The objective (Eq. 7) maximizes the drop-weighted reduction in the
// network footprint of unwanted traffic: dropping a matching flow at node
// R_j on path P_ik removes Dist_ikj remaining downstream hops of footprint.
// Rule enablement e_ij is binary because TCAM slots are per rule (Eq. 8),
// which makes the problem NP-hard (the paper proves hardness by reduction
// from MAX-CUT in its technical report); the solver here follows the
// paper's approximation route: LP relaxation + randomized rounding
// (Figure 9), optionally improved by re-solving the LP with the rounded
// enablement fixed and by greedily packing additional rules.
package nips

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"nwdeploy/internal/lp"
	"nwdeploy/internal/obs"
	"nwdeploy/internal/topology"
	"nwdeploy/internal/traffic"
)

// Rule is one NIPS filtering rule C_i with its resource requirements:
// CamReq_i is per rule (a TCAM slot), CPUPerPkt and MemPerItem are
// per-packet and per-flow costs as in the NIDS model.
type Rule struct {
	Name       string
	CamReq     float64
	CPUPerPkt  float64
	MemPerItem float64
}

// UnitRules builds n rules with unit TCAM/CPU/memory requirements, the
// paper's evaluation setting ("for all i, CamReq_i = CpuReq_i =
// MemReq_i = 1").
func UnitRules(n int) []Rule {
	rules := make([]Rule, n)
	for i := range rules {
		rules[i] = Rule{Name: fmt.Sprintf("rule%03d", i), CamReq: 1, CPUPerPkt: 1, MemPerItem: 1}
	}
	return rules
}

// Instance is a fully specified NIPS deployment problem.
type Instance struct {
	Topo  *topology.Topology
	Rules []Rule

	// Paths holds the coordination units: end-to-end routing paths, node
	// sequences in forwarding order.
	Paths [][]int
	// Items and Pkts are T_ik^items and T_ik^pkts per path.
	Items, Pkts []float64
	// M[i][k] is the fraction of path k's traffic matching rule i.
	M [][]float64

	// Per-node capacities.
	CamCap, CPUCap, MemCap []float64

	// Dist[k][pos] is Dist_ikj for the node at position pos of path k:
	// the downstream distance remaining, in router hops by default
	// (Dist of the first node of a 3-node path is 3, the last is 1).
	Dist [][]float64
}

// DefaultMemCap and DefaultCPUCap are the paper's per-node, per-5-minute
// capacities: 400,000 flows of memory and 2 million packets of processing.
const (
	DefaultMemCap = 400000
	DefaultCPUCap = 2e6
)

// Config assembles an Instance.
type Config struct {
	// MaxPaths caps the path set to the heaviest gravity pairs (0 = all).
	MaxPaths int
	// RuleCapacityFraction is the paper's "rule capacity constraint": each
	// node's CamCap is this fraction of the total number of rules.
	RuleCapacityFraction float64
	// MatchSeed seeds the M_ik draw (uniform on [0, MatchHigh)).
	MatchSeed int64
	// MatchHigh is the upper bound of the match-rate distribution
	// (0 selects the paper's 0.01).
	MatchHigh float64
	// MatchDist selects the match-rate distribution shape; the zero value
	// is the paper's uniform draw.
	MatchDist traffic.MatchDist
}

// NewInstance builds an instance from a topology using gravity-model path
// volumes, hop-count distances, and the paper's capacity defaults.
func NewInstance(topo *topology.Topology, rules []Rule, cfg Config) *Instance {
	tm := traffic.Gravity(topo)
	pv := traffic.Volumes(topo, tm, cfg.MaxPaths)
	paths := topo.PathMatrix()

	inst := &Instance{Topo: topo, Rules: rules}
	for pi, pair := range pv.Pairs {
		path := paths[pair[0]][pair[1]]
		if len(path) == 0 {
			continue
		}
		inst.Paths = append(inst.Paths, path)
		inst.Items = append(inst.Items, pv.Items[pi])
		inst.Pkts = append(inst.Pkts, pv.Pkts[pi])
		dist := make([]float64, len(path))
		for pos := range path {
			dist[pos] = float64(len(path) - pos)
		}
		inst.Dist = append(inst.Dist, dist)
	}
	high := cfg.MatchHigh
	if high == 0 {
		high = 0.01
	}
	inst.M = traffic.MatchRatesDist(cfg.MatchDist, len(rules), len(inst.Paths), high, cfg.MatchSeed)

	n := topo.N()
	camPerNode := cfg.RuleCapacityFraction * float64(len(rules))
	inst.CamCap = make([]float64, n)
	inst.CPUCap = make([]float64, n)
	inst.MemCap = make([]float64, n)
	for j := 0; j < n; j++ {
		inst.CamCap[j] = camPerNode
		inst.CPUCap[j] = DefaultCPUCap
		inst.MemCap[j] = DefaultMemCap
	}
	return inst
}

// objCoef returns the Eq. (7) objective coefficient of d_ikj: the unwanted
// items on path k for rule i, weighted by the downstream distance saved.
func (inst *Instance) objCoef(i, k, pos int) float64 {
	return inst.Items[k] * inst.M[i][k] * inst.Dist[k][pos]
}

// Relaxation is the solution of the LP relaxation (e_ij in [0,1]).
type Relaxation struct {
	// E[i][j] is the fractional enablement of rule i on node j.
	E [][]float64
	// D[i][k][pos] is the sampled fraction d_ikj for the node at position
	// pos of path k.
	D [][][]float64
	// Objective is OptLP, the upper bound the rounding variants are
	// measured against ("fraction of LP upperbound").
	Objective float64
	// Iters counts simplex iterations across the solve.
	Iters int
}

// SolveRelaxation solves Eqs. (7)–(13) with Eq. (14) relaxed to
// 0 <= e_ij <= 1.
func SolveRelaxation(inst *Instance) (*Relaxation, error) {
	return solveRelaxation(inst, nil)
}

// solveRelaxation is SolveRelaxation with an optional metrics registry
// threaded into the LP solve (nil is the no-op registry).
func solveRelaxation(inst *Instance, metrics *obs.Registry) (*Relaxation, error) {
	n := inst.Topo.N()
	L := len(inst.Rules)
	p := lp.New(lp.Maximize)

	// e variables for nodes that appear on at least one path.
	onPath := make([]bool, n)
	for _, path := range inst.Paths {
		for _, j := range path {
			onPath[j] = true
		}
	}
	eVars := make([][]lp.Var, L)
	for i := 0; i < L; i++ {
		eVars[i] = make([]lp.Var, n)
		for j := 0; j < n; j++ {
			if onPath[j] {
				eVars[i][j] = p.AddVar(0, 0, 1)
			} else {
				eVars[i][j] = -1
			}
		}
	}

	dVars := make([][][]lp.Var, L)
	camTerms := make([][]lp.Term, n)
	memTerms := make([][]lp.Term, n)
	cpuTerms := make([][]lp.Term, n)
	for i := 0; i < L; i++ {
		dVars[i] = make([][]lp.Var, len(inst.Paths))
		for j := 0; j < n; j++ {
			if onPath[j] {
				camTerms[j] = append(camTerms[j], lp.Term{Var: eVars[i][j], Coef: inst.Rules[i].CamReq})
			}
		}
		for k, path := range inst.Paths {
			dVars[i][k] = make([]lp.Var, len(path))
			cover := make([]lp.Term, 0, len(path))
			for pos, j := range path {
				v := p.AddVar(inst.objCoef(i, k, pos), 0, 1)
				dVars[i][k][pos] = v
				cover = append(cover, lp.Term{Var: v, Coef: 1})
				memTerms[j] = append(memTerms[j], lp.Term{Var: v, Coef: inst.Items[k] * inst.Rules[i].MemPerItem})
				cpuTerms[j] = append(cpuTerms[j], lp.Term{Var: v, Coef: inst.Pkts[k] * inst.Rules[i].CPUPerPkt})
				// Eq (12): d_ikj <= e_ij.
				p.AddConstraint([]lp.Term{{Var: v, Coef: 1}, {Var: eVars[i][j], Coef: -1}}, lp.LE, 0)
			}
			// Eq (11): total sampled fraction per path-rule <= 1.
			p.AddConstraint(cover, lp.LE, 1)
		}
	}
	for j := 0; j < n; j++ {
		if len(camTerms[j]) > 0 {
			p.AddConstraint(camTerms[j], lp.LE, inst.CamCap[j]) // Eq (8)
		}
		if len(memTerms[j]) > 0 {
			p.AddConstraint(memTerms[j], lp.LE, inst.MemCap[j]) // Eq (9)
		}
		if len(cpuTerms[j]) > 0 {
			p.AddConstraint(cpuTerms[j], lp.LE, inst.CPUCap[j]) // Eq (10)
		}
	}

	sol, err := p.SolveOpts(lp.Options{Metrics: metrics})
	if err != nil {
		return nil, fmt.Errorf("nips: relaxation: %w", err)
	}
	if sol.Status != lp.StatusOptimal {
		return nil, fmt.Errorf("nips: relaxation: %w", sol.Status.Err())
	}

	rel := &Relaxation{Objective: sol.Objective, Iters: sol.Iters}
	rel.E = make([][]float64, L)
	rel.D = make([][][]float64, L)
	for i := 0; i < L; i++ {
		rel.E[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			if onPath[j] {
				rel.E[i][j] = clamp01(sol.Value(eVars[i][j]))
			}
		}
		rel.D[i] = make([][]float64, len(inst.Paths))
		for k := range inst.Paths {
			rel.D[i][k] = make([]float64, len(inst.Paths[k]))
			for pos := range inst.Paths[k] {
				rel.D[i][k][pos] = clamp01(sol.Value(dVars[i][k][pos]))
			}
		}
	}
	return rel, nil
}

// clamp01 confines a solver value to [0, 1]. NaN maps to 0: both x < 0 and
// x > 1 are false for NaN, so without the explicit check a degenerate solver
// tolerance would smuggle NaN into the relaxation values.
func clamp01(x float64) float64 {
	if math.IsNaN(x) || x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// Deployment is an integral rule placement with its sampling fractions.
type Deployment struct {
	// E[i][j] reports whether rule i is enabled on node j.
	E [][]bool
	// D[i][k][pos] is the sampling fraction at position pos of path k.
	D [][][]float64
	// Objective is the Eq. (7) value of the deployment.
	Objective float64
}

// ErrRoundingFailed is returned when no rounding trial satisfied the
// concentration check within the configured budget.
var ErrRoundingFailed = errors.New("nips: randomized rounding failed every trial")

// RoundConfig tunes the Figure 9 algorithm.
type RoundConfig struct {
	// Alpha deflates the rounding probability (line 5 of Figure 9);
	// zero selects 1.2.
	Alpha float64
	// Beta scales the allowed violation factor beta*log(N) (line 7);
	// zero selects 1.
	Beta float64
	// MaxTrials bounds the repeat loop; zero selects 50.
	MaxTrials int
}

func (c *RoundConfig) defaults() {
	if c.Alpha == 0 {
		c.Alpha = 1.2
	}
	if c.Beta == 0 {
		c.Beta = 1
	}
	if c.MaxTrials == 0 {
		c.MaxTrials = 50
	}
}

// roundStats counts the work one Round call performed: trials includes
// every restart forced by the concentration check, repairs counts the
// individual rule disables applied to satisfy Eq. (8). Both are
// deterministic functions of (instance, relaxation, config, rng stream).
type roundStats struct {
	trials  int
	repairs int
}

// round is Round with work counters.
func round(inst *Instance, rel *Relaxation, cfg RoundConfig, rng *rand.Rand) (*Deployment, roundStats, error) {
	cfg.defaults()
	n := inst.Topo.N()
	L := len(inst.Rules)
	nBig := math.Max(float64(n), float64(L))
	allowed := cfg.Beta * math.Log(math.Max(math.E, nBig))

	var rs roundStats
	for trial := 0; trial < cfg.MaxTrials; trial++ {
		rs.trials++
		dep := &Deployment{}
		dep.E = make([][]bool, L)
		for i := 0; i < L; i++ {
			dep.E[i] = make([]bool, n)
			for j := 0; j < n; j++ {
				if rng.Float64() < rel.E[i][j]/cfg.Alpha {
					dep.E[i][j] = true
				}
			}
		}
		// d-hat = epsilon * e-hat, with epsilon = d*/e*.
		dep.D = make([][][]float64, L)
		for i := 0; i < L; i++ {
			dep.D[i] = make([][]float64, len(inst.Paths))
			for k, path := range inst.Paths {
				dep.D[i][k] = make([]float64, len(path))
				for pos, j := range path {
					if !dep.E[i][j] || rel.E[i][j] <= 1e-12 {
						continue
					}
					dep.D[i][k][pos] = rel.D[i][k][pos] / rel.E[i][j]
				}
			}
		}
		viol := maxSoftViolation(inst, dep)
		if viol > allowed {
			continue // failure: retry the trial
		}
		// Repair Eq. (8): zero rules until TCAM fits (arbitrary order, as
		// in line 10).
		rs.repairs += repairTCAM(inst, dep)
		// Rescale d to restore Eqs. (9)–(11) feasibility.
		if scale := maxSoftViolation(inst, dep); scale > 1 {
			for i := range dep.D {
				for k := range dep.D[i] {
					for pos := range dep.D[i][k] {
						dep.D[i][k][pos] /= scale
					}
				}
			}
		}
		dep.Objective = Objective(inst, dep)
		return dep, rs, nil
	}
	return nil, rs, ErrRoundingFailed
}

// maxSoftViolation returns the largest factor by which the deployment's d
// values violate Eqs. (9)–(11); 1 or less means feasible.
func maxSoftViolation(inst *Instance, dep *Deployment) float64 {
	n := inst.Topo.N()
	mem := make([]float64, n)
	cpu := make([]float64, n)
	worst := 1.0
	for i := range dep.D {
		for k, path := range inst.Paths {
			cover := 0.0
			for pos, j := range path {
				d := dep.D[i][k][pos]
				if d == 0 {
					continue
				}
				cover += d
				mem[j] += inst.Items[k] * inst.Rules[i].MemPerItem * d
				cpu[j] += inst.Pkts[k] * inst.Rules[i].CPUPerPkt * d
			}
			if cover > worst {
				worst = cover // Eq (11) rhs is 1
			}
		}
	}
	for j := 0; j < n; j++ {
		if inst.MemCap[j] > 0 {
			worst = math.Max(worst, mem[j]/inst.MemCap[j])
		}
		if inst.CPUCap[j] > 0 {
			worst = math.Max(worst, cpu[j]/inst.CPUCap[j])
		}
	}
	return worst
}

// repairTCAM zeroes enabled rules (and their d values) on nodes whose TCAM
// constraint is violated, dropping the lowest-value rules first. It
// returns the number of rule disables applied.
func repairTCAM(inst *Instance, dep *Deployment) int {
	repairs := 0
	n := inst.Topo.N()
	for j := 0; j < n; j++ {
		for {
			used := 0.0
			for i := range dep.E {
				if dep.E[i][j] {
					used += inst.Rules[i].CamReq
				}
			}
			if used <= inst.CamCap[j]+1e-9 {
				break
			}
			// Drop the enabled rule contributing least to the objective at
			// this node.
			worstRule, worstGain := -1, math.Inf(1)
			for i := range dep.E {
				if !dep.E[i][j] {
					continue
				}
				if g := ruleNodeGain(inst, dep, i, j); g < worstGain {
					worstRule, worstGain = i, g
				}
			}
			if worstRule < 0 {
				break
			}
			disableRule(inst, dep, worstRule, j)
			repairs++
		}
	}
	return repairs
}

// ruleNodeGain sums the objective contribution of rule i's sampling at node j.
func ruleNodeGain(inst *Instance, dep *Deployment, i, j int) float64 {
	var g float64
	for k, path := range inst.Paths {
		for pos, node := range path {
			if node == j {
				g += dep.D[i][k][pos] * inst.objCoef(i, k, pos)
			}
		}
	}
	return g
}

// disableRule clears e_ij and all its d values.
func disableRule(inst *Instance, dep *Deployment, i, j int) {
	dep.E[i][j] = false
	for k, path := range inst.Paths {
		for pos, node := range path {
			if node == j {
				dep.D[i][k][pos] = 0
			}
		}
	}
}

// Objective evaluates Eq. (7) for a deployment.
func Objective(inst *Instance, dep *Deployment) float64 {
	var total float64
	for i := range dep.D {
		for k := range dep.D[i] {
			for pos := range dep.D[i][k] {
				total += dep.D[i][k][pos] * inst.objCoef(i, k, pos)
			}
		}
	}
	return total
}

// Verify checks every constraint of Eqs. (8)–(13) on the deployment and
// returns a descriptive error on the first violation.
func (dep *Deployment) Verify(inst *Instance) error {
	n := inst.Topo.N()
	const tol = 1e-6
	cam := make([]float64, n)
	mem := make([]float64, n)
	cpu := make([]float64, n)
	for i := range dep.E {
		for j := 0; j < n; j++ {
			if dep.E[i][j] {
				cam[j] += inst.Rules[i].CamReq
			}
		}
	}
	for i := range dep.D {
		for k, path := range inst.Paths {
			cover := 0.0
			for pos, j := range path {
				d := dep.D[i][k][pos]
				if d < -tol || d > 1+tol {
					return fmt.Errorf("nips: d[%d][%d] at node %d = %v out of [0,1]", i, k, j, d)
				}
				if d > tol && !dep.E[i][j] {
					return fmt.Errorf("nips: rule %d samples at node %d without being enabled (Eq. 12)", i, j)
				}
				cover += d
				mem[j] += inst.Items[k] * inst.Rules[i].MemPerItem * d
				cpu[j] += inst.Pkts[k] * inst.Rules[i].CPUPerPkt * d
			}
			if cover > 1+tol {
				return fmt.Errorf("nips: rule %d path %d oversampled: %v (Eq. 11)", i, k, cover)
			}
		}
	}
	for j := 0; j < n; j++ {
		if cam[j] > inst.CamCap[j]+tol {
			return fmt.Errorf("nips: node %d TCAM %v > cap %v (Eq. 8)", j, cam[j], inst.CamCap[j])
		}
		if mem[j] > inst.MemCap[j]*(1+tol) {
			return fmt.Errorf("nips: node %d memory %v > cap %v (Eq. 9)", j, mem[j], inst.MemCap[j])
		}
		if cpu[j] > inst.CPUCap[j]*(1+tol) {
			return fmt.Errorf("nips: node %d CPU %v > cap %v (Eq. 10)", j, cpu[j], inst.CPUCap[j])
		}
	}
	return nil
}
