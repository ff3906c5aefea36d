package governor

import (
	"fmt"

	"nwdeploy/internal/ledger"
)

// Attestation is the ledger-committed form of one governing decision:
// the node, its floor configuration, the exact ranges given up, the load
// projections that justified them, and a floor-intactness bit recomputed
// from the shed list itself (not copied from intent). Committed per
// overload epoch, the chain of attestations is the non-repudiable answer
// to "did shedding ever breach the r = 1 coverage floor?".
type Attestation struct {
	Node        int
	FloorCopies int
	// Satisfied echoes Report.Satisfied: post-shed load fit the tolerated
	// budget. FloorIntact attests that no shed range touched a redundancy
	// copy below FloorCopies — the invariant the coverage floor rests on.
	Satisfied   bool
	FloorIntact bool

	ProjectedCPU, ProjectedMem float64
	BudgetCPU, BudgetMem       float64
	CPUAfter, MemAfter         float64
	ShedWidth                  float64
	Shed                       []ShedRange
}

// Attest derives the attestation of one epoch's report. FloorIntact is
// computed by checking every shed range's copy against the configured
// floor, so a governor bug that shed a floor copy would be attested as a
// violation, not papered over.
func (g *Governor) Attest(rep Report) Attestation {
	a := Attestation{
		Node: rep.Node, FloorCopies: floorCopies,
		Satisfied: rep.Satisfied, FloorIntact: true,
		ProjectedCPU: rep.ProjectedCPU, ProjectedMem: rep.ProjectedMem,
		BudgetCPU: rep.BudgetCPU, BudgetMem: rep.BudgetMem,
		CPUAfter: rep.CPUAfter, MemAfter: rep.MemAfter,
		ShedWidth: rep.ShedWidth,
		Shed:      append([]ShedRange(nil), rep.Shed...),
	}
	for _, s := range a.Shed {
		if s.Copy < a.FloorCopies {
			a.FloorIntact = false
		}
	}
	return a
}

// Encode renders the attestation in the ledger's canonical binary form.
// Non-finite projections or range bounds are rejected with
// ledger.ErrNonFinite rather than hashed.
func (a Attestation) Encode() ([]byte, error) {
	var e ledger.Enc
	e.I64(int64(a.Node))
	e.I64(int64(a.FloorCopies))
	e.Bool(a.Satisfied)
	e.Bool(a.FloorIntact)
	e.F64(a.ProjectedCPU)
	e.F64(a.ProjectedMem)
	e.F64(a.BudgetCPU)
	e.F64(a.BudgetMem)
	e.F64(a.CPUAfter)
	e.F64(a.MemAfter)
	e.F64(a.ShedWidth)
	e.U64(uint64(len(a.Shed)))
	for _, s := range a.Shed {
		e.I64(int64(s.Unit))
		e.I64(int64(s.Copy))
		e.F64(s.Range.Lo)
		e.F64(s.Range.Hi)
	}
	b, err := e.Finish()
	if err != nil {
		return nil, fmt.Errorf("governor: attestation node %d: %w", a.Node, err)
	}
	return b, nil
}

// DecodeAttestation parses a canonical attestation — the offline
// verifier's read path.
func DecodeAttestation(b []byte) (Attestation, error) {
	d := ledger.NewDec(b)
	a := Attestation{
		Node:        int(d.I64()),
		FloorCopies: int(d.I64()),
		Satisfied:   d.Bool(),
		FloorIntact: d.Bool(),
	}
	a.ProjectedCPU = d.F64()
	a.ProjectedMem = d.F64()
	a.BudgetCPU = d.F64()
	a.BudgetMem = d.F64()
	a.CPUAfter = d.F64()
	a.MemAfter = d.F64()
	a.ShedWidth = d.F64()
	n := d.U64()
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		var s ShedRange
		s.Unit = int(d.I64())
		s.Copy = int(d.I64())
		s.Range.Lo = d.F64()
		s.Range.Hi = d.F64()
		a.Shed = append(a.Shed, s)
	}
	if err := d.Done(); err != nil {
		return Attestation{}, fmt.Errorf("governor: attestation: %w", err)
	}
	return a, nil
}
