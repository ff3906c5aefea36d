package governor

import (
	"bytes"
	"encoding/binary"
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

// FuzzDecodeAttestation feeds DecodeAttestation arbitrary bytes, the
// offline verifier's untrusted input: it must never panic, and whatever
// decodes must encode again and decode to the same attestation.
func FuzzDecodeAttestation(f *testing.F) {
	valid, err := Attestation{
		Node: 3, FloorCopies: 1, Satisfied: true, FloorIntact: true,
		ProjectedCPU: 1.25, BudgetCPU: 1, CPUAfter: 0.9, ShedWidth: 0.25,
		Shed: []ShedRange{{Unit: 7, Copy: 1, Range: hashing.Range{Lo: 0.25, Hi: 0.5}}},
	}.Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	nan := bytes.Clone(valid)
	binary.LittleEndian.PutUint64(nan[18:], math.Float64bits(math.NaN())) // ProjectedCPU
	f.Add(nan)
	huge := bytes.Clone(valid[:74])
	f.Add(binary.LittleEndian.AppendUint64(huge, 1<<62)) // a shed count no input can hold
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := DecodeAttestation(data)
		if err != nil {
			return
		}
		b, err := a.Encode()
		if err != nil {
			t.Fatalf("decoded attestation does not encode: %v\n%+v", err, a)
		}
		back, err := DecodeAttestation(b)
		if err != nil {
			t.Fatalf("re-encoded attestation does not decode: %v", err)
		}
		if !reflect.DeepEqual(a, back) {
			t.Fatalf("round trip changed the attestation:\n%+v\n%+v", a, back)
		}
	})
}
