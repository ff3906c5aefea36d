package cluster

import (
	"fmt"

	"nwdeploy/internal/governor"
	"nwdeploy/internal/ledger"
)

// CoverageVerdict is the ledger-committed summary of one runtime epoch's
// audit: what coverage the wire actually delivered versus the
// prediction, which agents enforced which manifest generation, and the
// SLO verdicts. The epoch loop commits one per epoch, the same fields
// whatever the driver. All fields are logical quantities, so the encoding is
// seed-deterministic.
type CoverageVerdict struct {
	RunEpoch  int
	CtrlEpoch uint64
	// ControllerDown and DownNodes echo the epoch's injected faults
	// (crashes only: a drained node is not down in the ledger's sense).
	ControllerDown bool
	DownNodes      []int
	AgentEpochs    []uint64
	Synced         int
	Stale          int
	Dark           int
	// Alerts and MaxCPU are the data plane's outcome — the alert total and
	// the busiest engine's CPU units — and 0 in an epoch whose data plane
	// did not run (governed load fractions are the report's NodeLoads).
	Alerts int
	MaxCPU float64
	// Worst/Avg are the achieved wire coverage; PredictedWorst/Avg the
	// published expectation on the same probe grid: live nodes' plan
	// manifests minus their published shed.
	Worst          float64
	Avg            float64
	PredictedWorst float64
	PredictedAvg   float64
	SLOViolations  []string
}

// Encode renders the verdict in the ledger's canonical binary form.
func (v CoverageVerdict) Encode() ([]byte, error) {
	var e ledger.Enc
	e.I64(int64(v.RunEpoch))
	e.U64(v.CtrlEpoch)
	e.Bool(v.ControllerDown)
	e.Ints(v.DownNodes)
	e.U64s(v.AgentEpochs)
	e.I64(int64(v.Synced))
	e.I64(int64(v.Stale))
	e.I64(int64(v.Dark))
	e.I64(int64(v.Alerts))
	e.F64(v.MaxCPU)
	e.F64(v.Worst)
	e.F64(v.Avg)
	e.F64(v.PredictedWorst)
	e.F64(v.PredictedAvg)
	e.Strs(v.SLOViolations)
	b, err := e.Finish()
	if err != nil {
		return nil, fmt.Errorf("cluster: verdict epoch %d: %w", v.RunEpoch, err)
	}
	return b, nil
}

// DecodeCoverageVerdict parses a canonical verdict — the offline
// verifier's read path.
func DecodeCoverageVerdict(b []byte) (CoverageVerdict, error) {
	d := ledger.NewDec(b)
	v := CoverageVerdict{
		RunEpoch:       int(d.I64()),
		CtrlEpoch:      d.U64(),
		ControllerDown: d.Bool(),
		DownNodes:      d.Ints(),
		AgentEpochs:    d.U64s(),
		Synced:         int(d.I64()),
		Stale:          int(d.I64()),
		Dark:           int(d.I64()),
		Alerts:         int(d.I64()),
		MaxCPU:         d.F64(),
		Worst:          d.F64(),
		Avg:            d.F64(),
		PredictedWorst: d.F64(),
		PredictedAvg:   d.F64(),
		SLOViolations:  d.Strs(),
	}
	if err := d.Done(); err != nil {
		return CoverageVerdict{}, fmt.Errorf("cluster: verdict: %w", err)
	}
	return v, nil
}

// commitVerdict seals one epoch into the attached ledger: the coverage
// verdict, every field from the loop's epoch record, plus the governed
// nodes' floor attestations. Free when no ledger is configured.
func (c *Cluster) commitVerdict(ep *ScenarioEpoch, attests []governor.Attestation) {
	l := c.cfg.Ledger
	if l == nil {
		return
	}
	v := CoverageVerdict{
		RunEpoch:       ep.Epoch,
		CtrlEpoch:      ep.ControllerEpoch,
		ControllerDown: ep.CtrlDown,
		DownNodes:      ep.DownNodes,
		AgentEpochs:    ep.AgentEpochs,
		Synced:         ep.SyncedAgents,
		Stale:          ep.StaleAgents,
		Dark:           ep.DarkAgents,
		Alerts:         ep.Alerts,
		MaxCPU:         ep.MaxCPU,
		Worst:          ep.WorstCoverage,
		Avg:            ep.AvgCoverage,
		PredictedWorst: ep.ExpectedWorst,
		PredictedAvg:   ep.ExpectedAvg,
		SLOViolations:  ep.SLOViolations,
	}
	b := l.Begin(ledger.RecEpoch, ep.ControllerEpoch)
	data, err := v.Encode()
	b.Item(ledger.ItemVerdict, "coverage", data, err)
	for _, a := range attests {
		data, err := a.Encode()
		b.Item(ledger.ItemAttest, fmt.Sprintf("node/%d", a.Node), data, err)
	}
	b.Commit()
}
