package online

import (
	"math/rand"

	"nwdeploy/internal/nips"
	"nwdeploy/internal/traffic"
)

// Adversary generates the unwanted-traffic mix for each epoch. The paper's
// preliminary evaluation draws match rates i.i.d. uniform; its stated
// future work is evaluating FPL "in the presence of strategic adversaries"
// — adversaries that choose the mix as a function of the defender's
// behaviour. Implementations here cover the spectrum: oblivious
// randomness, drifting concentration, and a fully adaptive evader.
//
// Next may observe the defender's previous decision (nil in the first
// epoch); the current epoch's decision is never visible, preserving the
// online model's information order.
type Adversary interface {
	Name() string
	Next(epoch int, prev *Decision) [][]float64
}

// UniformAdversary redraws M_ik ~ U[0, High) each epoch, independent of
// the defender — the paper's Figure 11 setting.
type UniformAdversary struct {
	Rules, Paths int
	High         float64
	Seed         int64
}

// Name implements Adversary.
func (a *UniformAdversary) Name() string { return "uniform" }

// Next implements Adversary.
func (a *UniformAdversary) Next(epoch int, _ *Decision) [][]float64 {
	return traffic.MatchRates(a.Rules, a.Paths, 0, a.High, a.Seed+int64(epoch)*7919)
}

// DriftAdversary concentrates the attack on a small set of (rule, path)
// pairs and rotates that set every Period epochs — a botnet shifting its
// campaign. Non-adaptive but highly non-stationary.
type DriftAdversary struct {
	Rules, Paths int
	High         float64
	Period       int
	Hot          int // concentrated pairs per phase
	Seed         int64
}

// Name implements Adversary.
func (a *DriftAdversary) Name() string { return "drift" }

// Next implements Adversary.
func (a *DriftAdversary) Next(epoch int, _ *Decision) [][]float64 {
	period := a.Period
	if period <= 0 {
		period = 50
	}
	hot := a.Hot
	if hot <= 0 {
		hot = 3
	}
	phase := epoch / period
	rng := rand.New(rand.NewSource(a.Seed + int64(phase)*104729))
	m := make([][]float64, a.Rules)
	for i := range m {
		m[i] = make([]float64, a.Paths)
		for k := range m[i] {
			m[i][k] = rng.Float64() * a.High / 20 // background trickle
		}
	}
	for h := 0; h < hot; h++ {
		i := rng.Intn(a.Rules)
		k := rng.Intn(a.Paths)
		m[i][k] = a.High * (0.8 + 0.2*rng.Float64())
	}
	return m
}

// EvasiveAdversary is fully adaptive: each epoch it inspects the
// defender's previous sampling decision and concentrates the unwanted
// traffic on the (rule, path) pairs with the LEAST sampling coverage,
// maximizing what slips through if the defender repeats itself. This is
// exactly the strategy FPL's perturbation is designed to blunt ("the
// perturbation term guards against adversaries who know our strategy").
type EvasiveAdversary struct {
	Inst *nips.Instance
	High float64
	Hot  int
	Seed int64
}

// Name implements Adversary.
func (a *EvasiveAdversary) Name() string { return "evasive" }

// Next implements Adversary.
func (a *EvasiveAdversary) Next(epoch int, prev *Decision) [][]float64 {
	nRules := len(a.Inst.Rules)
	nPaths := len(a.Inst.Paths)
	hot := a.Hot
	if hot <= 0 {
		hot = max(1, nRules*nPaths/10)
	}
	m := make([][]float64, nRules)
	for i := range m {
		m[i] = make([]float64, nPaths)
	}
	if prev == nil {
		// No information yet: attack arbitrarily (deterministically).
		for h := 0; h < hot; h++ {
			m[h%nRules][(h*3)%nPaths] = a.High
		}
		return m
	}
	// Rank (rule, path) pairs by the defender's total sampling coverage
	// and attack the least-covered ones.
	type cell struct {
		i, k  int
		cover float64
	}
	cells := make([]cell, 0, nRules*nPaths)
	for i := 0; i < nRules; i++ {
		for k := 0; k < nPaths; k++ {
			c := 0.0
			for pos := range prev.D[i][k] {
				c += prev.D[i][k][pos]
			}
			cells = append(cells, cell{i, k, c})
		}
	}
	// Selection sort of the hot least-covered cells (hot is small);
	// deterministic tie-break by indices keeps runs reproducible.
	for h := 0; h < hot && h < len(cells); h++ {
		minAt := h
		for x := h + 1; x < len(cells); x++ {
			if cells[x].cover < cells[minAt].cover-1e-12 ||
				(cells[x].cover < cells[minAt].cover+1e-12 &&
					(cells[x].i < cells[minAt].i || (cells[x].i == cells[minAt].i && cells[x].k < cells[minAt].k))) {
				minAt = x
			}
		}
		cells[h], cells[minAt] = cells[minAt], cells[h]
		m[cells[h].i][cells[h].k] = a.High
	}
	return m
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// AdversarialResult summarizes one run against an adversary.
type AdversarialResult struct {
	Adversary string
	Series    []RegretPoint
	// FPLTotal and StaticTotal are the cumulative objectives of the online
	// strategy and of the best static decision in hindsight.
	FPLTotal, StaticTotal float64
}

// RunVsAdversary plays the FPL deployer against an adversary for the
// configured horizon, sampling the normalized regret like Run.
func RunVsAdversary(inst *nips.Instance, adv Adversary, cfg RunConfig) (*AdversarialResult, error) {
	if cfg.Epochs <= 0 {
		return nil, errNonPositiveEpochs
	}
	sample := cfg.SampleEvery
	if sample <= 0 {
		sample = 10
	}
	ad := NewAdapter(inst, cfg.Epochs, maxDrop, cfg.Seed)

	res := &AdversarialResult{Adversary: adv.Name()}
	var history [][][]float64
	var prev *Decision
	for t := 1; t <= cfg.Epochs; t++ {
		m := adv.Next(t, prev) // adversary commits before seeing d_t
		dec, err := ad.Decide()
		if err != nil {
			return nil, err
		}
		res.FPLTotal += Reward(inst, dec, m)
		if err := ad.Observe(m); err != nil {
			return nil, err
		}
		history = append(history, m)
		prev = dec
		if t%sample == 0 || t == cfg.Epochs {
			_, staticTotal, err := BestStatic(inst, history)
			if err != nil {
				return nil, err
			}
			pt := RegretPoint{Epoch: t, Cumulative: staticTotal - res.FPLTotal}
			if staticTotal > 0 {
				pt.Normalized = (staticTotal - res.FPLTotal) / staticTotal
			}
			res.Series = append(res.Series, pt)
			res.StaticTotal = staticTotal
		}
	}
	return res, nil
}
