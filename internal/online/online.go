// Package online implements the paper's Section 3.5: making NIPS
// deployment robust to adaptive adversaries who control the unwanted
// traffic mix. It follows the Kalai–Vempala framework for online linear
// optimization: decisions are the sampling vectors d_ikj, the state of the
// world in epoch t is the vector of T_ik^items x M_ik(t) x Dist_ikj terms
// revealed only after the decision, and the follow-the-perturbed-leader
// (FPL) strategy plays the optimizer Lambda on the perturbed historical sum
// of states. Theorem 3.1 bounds the expected average regret by
// sqrt(D*R*A/gamma) with the constants defined in the paper.
//
// As in the paper's preliminary evaluation, the TCAM constraints (and the
// discrete e_ij variables) are removed: Lambda is a pure LP.
package online

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"nwdeploy/internal/nips"
	"nwdeploy/internal/obs"
	"nwdeploy/internal/traffic"
)

// errNonPositiveEpochs rejects empty horizons.
var errNonPositiveEpochs = errors.New("online: nonpositive epoch count")

// Decision is a fractional sampling assignment: D[i][k][pos] parallels the
// instance's rule/path/position structure.
type Decision struct {
	D [][][]float64
}

// Adapter runs the FPL strategy over epochs.
type Adapter struct {
	inst *nips.Instance
	// Eps is the FPL perturbation parameter (perturbations are drawn
	// uniformly from [0, 1/Eps]^n).
	Eps float64

	cum     [][]float64 // cumulative observed match rates per (rule, path)
	epoch   int
	rng     *rand.Rand
	metrics *obs.Registry
}

// AdapterOptions parameterizes NewAdapterOpts. The zero value selects a
// one-epoch horizon and a 1% droppable-traffic bound.
type AdapterOptions struct {
	// Horizon is the intended number of epochs (gamma in Theorem 3.1);
	// values below 1 select 1.
	Horizon int
	// MaxDrop is a conservative bound on the droppable traffic fraction;
	// zero or negative selects 0.01. Together with Horizon it sets the
	// perturbation scale eps = sqrt(D/(R*A*gamma)).
	MaxDrop float64
	// Seed drives the per-epoch perturbation draws.
	Seed int64
	// Metrics, when non-nil, receives per-decision LP solver counters and
	// an online.decide_ns span. The registry is write-only: the decision
	// sequence is identical with or without it (nil is the no-op default;
	// see internal/obs).
	Metrics *obs.Registry
}

// NewAdapter builds an FPL adapter for the instance. gamma is the intended
// horizon and maxdrop the conservative bound on the droppable traffic
// fraction; together they set eps = sqrt(D/(R*A*gamma)) per Theorem 3.1,
// with D = M*N*L and R = A = sum_ik T_ik^items * maxdrop.
func NewAdapter(inst *nips.Instance, gamma int, maxdrop float64, seed int64) *Adapter {
	return NewAdapterOpts(inst, AdapterOptions{Horizon: gamma, MaxDrop: maxdrop, Seed: seed})
}

// NewAdapterOpts builds an FPL adapter from an options struct; see
// AdapterOptions for the Theorem 3.1 constants the fields control.
func NewAdapterOpts(inst *nips.Instance, opts AdapterOptions) *Adapter {
	gamma, maxdrop := opts.Horizon, opts.MaxDrop
	if gamma < 1 {
		gamma = 1
	}
	if maxdrop <= 0 {
		maxdrop = maxDrop
	}
	nPaths := len(inst.Paths)
	nNodes := inst.Topo.N()
	nRules := len(inst.Rules)
	dDim := float64(nPaths * nNodes * nRules)
	var ra float64
	for k := range inst.Paths {
		ra += inst.Items[k] * maxdrop
	}
	eps := math.Sqrt(dDim / (ra * ra * float64(gamma)))
	cum := make([][]float64, nRules)
	for i := range cum {
		cum[i] = make([]float64, nPaths)
	}
	return &Adapter{
		inst:    inst,
		Eps:     eps,
		cum:     cum,
		rng:     rand.New(rand.NewSource(opts.Seed)),
		metrics: opts.Metrics,
	}
}

// Decide returns the FPL decision for the current epoch: Lambda applied to
// the perturbed sum of observed states. The perturbation is drawn fresh
// each epoch, guarding against adversaries who know the strategy.
func (a *Adapter) Decide() (*Decision, error) {
	sp := a.metrics.StartSpan("online.decide_ns")
	defer sp.End()
	a.metrics.Add("online.decisions", 1)
	perturb := func(i, k, pos int) float64 {
		return a.rng.Float64() / a.Eps
	}
	weights := func(i, k int) float64 { return a.cum[i][k] }
	return solveLambda(a.inst, weights, perturb, a.metrics)
}

// Observe reveals epoch t's true match rates (after the decision, as the
// framework requires) and accumulates them into the state history.
func (a *Adapter) Observe(m [][]float64) error {
	if len(m) != len(a.cum) {
		return fmt.Errorf("online: observed %d rules, want %d", len(m), len(a.cum))
	}
	for i := range m {
		if len(m[i]) != len(a.cum[i]) {
			return fmt.Errorf("online: rule %d observed %d paths, want %d", i, len(m[i]), len(a.cum[i]))
		}
		for k := range m[i] {
			a.cum[i][k] += m[i][k]
		}
	}
	a.epoch++
	return nil
}

// Reward evaluates a decision against one epoch's true match rates: the
// Eq. (7) objective realized in that epoch.
func Reward(inst *nips.Instance, d *Decision, m [][]float64) float64 {
	var total float64
	for i := range d.D {
		for k := range d.D[i] {
			for pos := range d.D[i][k] {
				total += d.D[i][k][pos] * inst.Items[k] * m[i][k] * inst.Dist[k][pos]
			}
		}
	}
	return total
}

// BestStatic computes the single decision maximizing the total reward over
// the given epochs — the hindsight benchmark the regret is measured
// against. By linearity it is Lambda applied to the unperturbed state sum.
func BestStatic(inst *nips.Instance, epochs [][][]float64) (*Decision, float64, error) {
	nRules := len(inst.Rules)
	nPaths := len(inst.Paths)
	sum := make([][]float64, nRules)
	for i := range sum {
		sum[i] = make([]float64, nPaths)
		for k := range sum[i] {
			for _, m := range epochs {
				sum[i][k] += m[i][k]
			}
		}
	}
	d, err := solveLambda(inst, func(i, k int) float64 { return sum[i][k] }, nil, nil)
	if err != nil {
		return nil, 0, err
	}
	var total float64
	for _, m := range epochs {
		total += Reward(inst, d, m)
	}
	return d, total, nil
}

// solveLambda is the optimization procedure Lambda: maximize the weighted
// Eq. (7) objective subject to the capacity and coverage constraints (no
// TCAM, so no integral variables, and every rule enabled everywhere) — the
// nips sampling LP. perturb and metrics may be nil.
func solveLambda(inst *nips.Instance, weight func(i, k int) float64, perturb func(i, k, pos int) float64, metrics *obs.Registry) (*Decision, error) {
	d, err := nips.SolveSampling(inst, func(i, k, pos int) float64 {
		coef := inst.Items[k] * weight(i, k) * inst.Dist[k][pos]
		if perturb != nil {
			coef += perturb(i, k, pos)
		}
		return coef
	}, nil, metrics)
	if err != nil {
		return nil, fmt.Errorf("online: Lambda: %w", err)
	}
	return &Decision{D: d}, nil
}

// RegretPoint is one sample of the Figure 11 series.
type RegretPoint struct {
	Epoch int
	// Normalized is the cumulative regret against the best static decision
	// in hindsight for this prefix, normalized by that static optimum's
	// cumulative objective. Negative values mean the online algorithm beat
	// the best static choice so far.
	Normalized float64
	// Cumulative is the raw (unnormalized) cumulative regret at this
	// sample: the hindsight static optimum's total minus FPL's total.
	// Theorem 3.1 promises it grows sublinearly in the epoch count — the
	// property RegretSlope estimates from a series of these.
	Cumulative float64
}

// RunConfig parameterizes a Figure 11 style experiment.
type RunConfig struct {
	Epochs int
	// SampleEvery controls how often the (LP-solving) hindsight benchmark
	// is recomputed; zero samples every 10 epochs.
	SampleEvery int
	Seed        int64
}

// RunConfig experiments use the paper's 0.01 for both the Theorem 3.1
// droppable-fraction bound and the per-epoch match rates' upper bound.
const (
	maxDrop   = 0.01
	matchHigh = 0.01
)

// Run executes one online-adaptation run: in every epoch the adapter
// decides, the adversary's match rates are revealed, and the realized
// objective is compared — at sampling points — to the best static decision
// in hindsight. It returns the normalized-regret series.
func Run(inst *nips.Instance, cfg RunConfig) ([]RegretPoint, error) {
	if cfg.Epochs <= 0 {
		return nil, errNonPositiveEpochs
	}
	sample := cfg.SampleEvery
	if sample <= 0 {
		sample = 10
	}
	ad := NewAdapter(inst, cfg.Epochs, maxDrop, cfg.Seed)

	var history [][][]float64
	var fplTotal float64
	var series []RegretPoint
	for t := 1; t <= cfg.Epochs; t++ {
		dec, err := ad.Decide()
		if err != nil {
			return nil, err
		}
		m := traffic.MatchRates(len(inst.Rules), len(inst.Paths), 0, matchHigh, cfg.Seed+int64(t)*7919)
		fplTotal += Reward(inst, dec, m)
		if err := ad.Observe(m); err != nil {
			return nil, err
		}
		history = append(history, m)
		if t%sample == 0 || t == cfg.Epochs {
			_, staticTotal, err := BestStatic(inst, history)
			if err != nil {
				return nil, err
			}
			pt := RegretPoint{Epoch: t, Cumulative: staticTotal - fplTotal}
			if staticTotal > 0 {
				pt.Normalized = (staticTotal - fplTotal) / staticTotal
			}
			series = append(series, pt)
		}
	}
	return series, nil
}
