package governor

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"nwdeploy/internal/hashing"
	"nwdeploy/internal/ledger"
)

func TestAttestationRoundTrip(t *testing.T) {
	a := Attestation{
		Node: 3, FloorCopies: 1, Satisfied: true, FloorIntact: true,
		ProjectedCPU: 1.25, ProjectedMem: 0.5,
		BudgetCPU: 1.0, BudgetMem: 0.75,
		CPUAfter: 0.9, MemAfter: 0.5, ShedWidth: 0.35,
		Shed: []ShedRange{
			{Unit: 7, Copy: 1, Range: hashing.Range{Lo: 0.25, Hi: 0.5}},
			{Unit: 9, Copy: 2, Range: hashing.Range{Lo: 0, Hi: 0.1}},
		},
	}
	b, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeAttestation(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, back) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", a, back)
	}
	if _, err := DecodeAttestation(b[:len(b)-1]); err == nil {
		t.Fatal("truncated attestation decoded")
	}
	if _, err := DecodeAttestation(append(append([]byte(nil), b...), 0)); err == nil {
		t.Fatal("padded attestation decoded")
	}
}

func TestAttestationRejectsNonFinite(t *testing.T) {
	a := Attestation{Node: 1, ProjectedCPU: math.NaN()}
	if _, err := a.Encode(); !errors.Is(err, ledger.ErrNonFinite) {
		t.Fatalf("err = %v, want ErrNonFinite", err)
	}
	a = Attestation{Node: 1, Shed: []ShedRange{{Range: hashing.Range{Lo: 0, Hi: math.Inf(1)}}}}
	if _, err := a.Encode(); !errors.Is(err, ledger.ErrNonFinite) {
		t.Fatalf("shed bound err = %v, want ErrNonFinite", err)
	}
}

// FloorIntact must be recomputed from the shed list, not trusted: a shed
// range below the floor flips it false even when Satisfied claims
// success.
func TestAttestRecomputesFloorIntact(t *testing.T) {
	g := &Governor{}
	rep := Report{Node: 0, Satisfied: true, Shed: []ShedRange{
		{Unit: 1, Copy: 1, Range: hashing.Range{Lo: 0, Hi: 0.5}},
	}}
	if a := g.Attest(rep); !a.FloorIntact {
		t.Fatal("copy >= floor attested as a violation")
	}
	rep.Shed = append(rep.Shed, ShedRange{Unit: 2, Copy: 0, Range: hashing.Range{Lo: 0, Hi: 0.1}})
	if a := g.Attest(rep); a.FloorIntact {
		t.Fatal("floor-copy shed not attested as a violation")
	}
}
