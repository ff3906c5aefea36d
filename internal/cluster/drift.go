package cluster

// Drift detection: the paper's Section 5 "Traffic changes" discussion has
// the operations center re-run the optimization every few minutes against
// fresh traffic reports. A fixed cadence either replans too often (wasted
// solves, manifest churn) or too rarely (nodes run hot between rounds).
// The detector instead smooths the observed per-unit volumes with an EWMA
// and triggers a replan only when the smoothed volumes have moved past a
// relative-error threshold from the volumes the current plan was solved
// against — so one-epoch blips are absorbed (the governor's job) while
// sustained shifts reprovision promptly.

// DriftDetector tracks EWMA-smoothed observed volumes against the current
// plan's reference volumes. It is deterministic: state is a pure function
// of the Observe call sequence.
type DriftDetector struct {
	alpha     float64
	threshold float64
	base      []float64
	ewma      []float64
	warmed    bool
	maxErr    float64
}

// NewDriftDetector builds a detector referenced to the given plan volumes.
// alpha is the EWMA weight of each new observation (0 selects 0.5);
// threshold is the max relative error that counts as drift (0 selects 0.2).
func NewDriftDetector(base []float64, alpha, threshold float64) *DriftDetector {
	if alpha <= 0 || alpha > 1 {
		alpha = 0.5
	}
	if threshold <= 0 {
		threshold = 0.2
	}
	return &DriftDetector{
		alpha: alpha, threshold: threshold,
		base: append([]float64(nil), base...),
	}
}

// Rebase re-anchors the detector to a new plan's volumes (after a replan)
// without discarding the smoothed observation state.
func (d *DriftDetector) Rebase(base []float64) {
	d.base = append(d.base[:0], base...)
	d.maxErr = d.relErr()
}

// Observe folds one epoch's observed per-unit volumes into the EWMA and
// returns the updated maximum relative error versus the reference.
func (d *DriftDetector) Observe(obs []float64) float64 {
	if !d.warmed {
		d.ewma = append(d.ewma[:0], obs...)
		d.warmed = true
	} else {
		for i, v := range obs {
			d.ewma[i] += d.alpha * (v - d.ewma[i])
		}
	}
	d.maxErr = d.relErr()
	return d.maxErr
}

func (d *DriftDetector) relErr() float64 {
	if !d.warmed {
		return 0
	}
	var max float64
	for i, b := range d.base {
		if b < 1 && d.ewma[i] < 1 {
			// Both reference and smoothed volume are sub-packet: the unit is
			// effectively idle on both sides, and the residual is float noise,
			// not drift. Without this guard an all-zero rebase (e.g. a total
			// outage epoch) would report every later sub-packet trickle as
			// absolute error and could pin the detector above threshold.
			continue
		}
		diff := d.ewma[i] - b
		if diff < 0 {
			diff = -diff
		}
		ref := b
		if ref < 1 {
			ref = 1 // empty-unit guard: absolute error on near-zero volumes
		}
		if e := diff / ref; e > max {
			max = e
		}
	}
	return max
}

// Drifted reports whether the smoothed volumes have moved past the replan
// threshold.
func (d *DriftDetector) Drifted() bool { return d.warmed && d.maxErr > d.threshold }

// Smoothed returns a copy of the EWMA volumes — the replan input.
func (d *DriftDetector) Smoothed() []float64 {
	return append([]float64(nil), d.ewma...)
}
