package control

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"nwdeploy/internal/core"
	"nwdeploy/internal/hashing"
	"nwdeploy/internal/traffic"
)

// hostileManifest is one path-scoped class with two assignments whose
// first unit-key components are k0a and k0b: the decider's bucket array
// spans the two, so far-apart keys make a few wire bytes allocate without
// bound (or, past the int32 range, panic).
func hostileManifest(k0a, k0b int) *Manifest {
	return &Manifest{
		Node: 0, Epoch: 1, HashKey: 7,
		Classes: []WireClass{{Name: "x", Scope: int(core.PerPath), Agg: int(core.BySession)}},
		Assignments: []WireAssignment{
			{Class: 0, Unit: [2]int{k0a, 1}, Ranges: []WireRange{{Lo: 0, Hi: 0.5}}},
			{Class: 0, Unit: [2]int{k0b, 1}, Ranges: []WireRange{{Lo: 0.5, Hi: 1}}},
		},
	}
}

// wideManifest is checkedManifest with its classes repeated up to n, each
// copy assigned a unit of its own: past 64 classes no class set fits the
// data plane's one-word masks.
func wideManifest(n int) *Manifest {
	m := checkedManifest()
	for c := len(m.Classes); c < n; c++ {
		m.Classes = append(m.Classes, m.Classes[c%2])
		m.Assignments = append(m.Assignments, WireAssignment{Class: c, Unit: [2]int{c % 7, -1}, Ranges: []WireRange{{Lo: 0, Hi: 0.5}}})
	}
	return m
}

// checkedManifest is a small manifest every rule admits.
func checkedManifest() *Manifest {
	return &Manifest{
		Node: 2, Epoch: 3, HashKey: 7,
		Classes: []WireClass{
			{Name: "path", Scope: int(core.PerPath), Agg: int(core.BySession)},
			{Name: "egress", Scope: int(core.PerEgress), Agg: int(core.ByDestination), Ports: []uint16{80}, Transport: 6},
		},
		Assignments: []WireAssignment{
			{Class: 0, Unit: [2]int{0, 2}, Ranges: []WireRange{{Lo: 0, Hi: 0.4}}},
			{Class: 0, Unit: [2]int{2, 5}, Ranges: []WireRange{{Lo: 0.2, Hi: 0.9}}},
			{Class: 1, Unit: [2]int{2, -1}, Ranges: []WireRange{{Lo: 0, Hi: 1}}},
		},
		Shed: []WireAssignment{{Class: 0, Unit: [2]int{2, 5}, Ranges: []WireRange{{Lo: 0.5, Hi: 0.9}}}},
	}
}

// Two ~60-byte binary manifests once crashed an agent (keys -2^31 and 0:
// the span overflowed int32 and makeslice panicked) or made it allocate
// about 2 GB (keys 0 and 2^26). Both now fail the install check: the sync
// errors and the agent keeps the manifest it had. So does a manifest of
// 65 classes, one more than a Decider indexes.
func TestHostileManifestsRejected(t *testing.T) {
	for _, tc := range []struct {
		name     string
		m        *Manifest
		maxBytes int    // the repro's wire size bound
		err      string // what the rejection names
	}{
		{"int32-overflow", hostileManifest(math.MinInt32, 0), 64, "unit key"},
		{"wide-span", hostileManifest(0, 1<<26), 64, "unit key"},
		{"65-classes", wideManifest(65), 2048, "65 classes"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wire := AppendManifestBinary(nil, tc.m)
			if len(wire) > tc.maxBytes {
				t.Fatalf("repro is %d wire bytes, want at most %d", len(wire), tc.maxBytes)
			}
			m, err := DecodeManifestBinary(wire)
			if err != nil {
				t.Fatal(err)
			}
			a := NewAgentOpts("unused", 0, AgentOptions{})
			defer a.Close()
			prev := checkedManifest()
			if err := a.install(prev); err != nil {
				t.Fatal(err)
			}
			if err := a.install(m); err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Fatalf("install accepted the hostile manifest (err %v)", err)
			}
			if a.Manifest() != prev || a.Decider().Epoch() != prev.Epoch {
				t.Fatal("a rejected install replaced the previous manifest")
			}
		})
	}
}

// Each rule rejects on its own, on assignments and shed alike, and the
// bounds themselves are admitted.
func TestCheckManifestRules(t *testing.T) {
	if err := checkManifest(checkedManifest()); err != nil {
		t.Fatalf("valid manifest rejected: %v", err)
	}
	edge := checkedManifest()
	edge.Assignments[0].Unit = [2]int{maxWireNodes - 1, -1}
	if err := checkManifest(edge); err != nil {
		t.Fatalf("largest node id rejected: %v", err)
	}
	for name, mutate := range map[string]func(m *Manifest){
		"node-id-bound":  func(m *Manifest) { m.Assignments[0].Unit[1] = maxWireNodes },
		"below-minus-1":  func(m *Manifest) { m.Assignments[1].Unit[0] = -2 },
		"class-negative": func(m *Manifest) { m.Assignments[2].Class = -1 },
		"class-past-end": func(m *Manifest) { m.Assignments[2].Class = len(m.Classes) },
		"shed-key":       func(m *Manifest) { m.Shed[0].Unit[0] = 1 << 40 },
		"shed-class":     func(m *Manifest) { m.Shed[0].Class = 9 },
		"nan-range":      func(m *Manifest) { m.Shed[0].Ranges[0].Lo = math.NaN() },
		"range-above-1":  func(m *Manifest) { m.Assignments[1].Ranges[0].Hi = 1.5 },
		"range-below-0":  func(m *Manifest) { m.Assignments[2].Ranges[0].Lo = math.Inf(-1) },
		"too-many-classes": func(m *Manifest) {
			for len(m.Classes) <= maxWireClasses {
				m.Classes = append(m.Classes, m.Classes[0])
			}
		},
	} {
		m := checkedManifest()
		mutate(m)
		if err := checkManifest(m); err == nil {
			t.Errorf("%s: manifest accepted", name)
		}
	}
}

// A delta carrying an out-of-range key fails ApplyDelta instead of being
// packed into a wrapped 32-bit key.
func TestApplyDeltaRejectsOutOfRangeKeys(t *testing.T) {
	base := checkedManifest()
	for _, d := range []*WireDelta{
		{Node: 2, BaseEpoch: 3, Epoch: 4, Added: []WireAssignment{{Class: 0, Unit: [2]int{1<<32 + 2, 5}}}},
		{Node: 2, BaseEpoch: 3, Epoch: 4, Removed: []WireAssignment{{Class: 5, Unit: [2]int{2, 5}}}},
		{Node: 2, BaseEpoch: 3, Epoch: 4, ShedChanged: true, Shed: []WireAssignment{{Class: 0, Unit: [2]int{-3, 5}}}},
	} {
		if _, err := ApplyDelta(base, d); err == nil {
			t.Errorf("ApplyDelta accepted %+v", d)
		}
	}
}

// fuzzSessions are sessions over nodes 0..5 that exercise every scope and
// aggregation of checkedManifest's classes.
var fuzzSessions = []traffic.Session{
	{Src: 0, Dst: 2, Tuple: hashing.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 1000, DstPort: 80, Proto: 6}},
	{Src: 2, Dst: 5, Tuple: hashing.FiveTuple{SrcIP: 3, DstIP: 4, SrcPort: 2000, DstPort: 443, Proto: 17}},
	{Src: 5, Dst: 2, Tuple: hashing.FiveTuple{SrcIP: 5, DstIP: 6, SrcPort: 3000, DstPort: 80, Proto: 6}},
}

// nanShedManifest subtracts n NaN-ended shed ranges from one assignment:
// each cut splits every surviving piece in two, so an unchecked manifest
// of a few hundred bytes builds 2^n pieces.
func nanShedManifest(n int) *Manifest {
	m := checkedManifest()
	m.Shed = nil
	for i := 0; i < n; i++ {
		m.Shed = append(m.Shed, WireAssignment{Class: 0, Unit: [2]int{0, 2}, Ranges: []WireRange{{Lo: math.NaN(), Hi: math.NaN()}}})
	}
	return m
}

// The NaN amplification is rejected at install like the key repros.
func TestNaNShedManifestRejected(t *testing.T) {
	m, err := DecodeManifestBinary(AppendManifestBinary(nil, nanShedManifest(40)))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkManifest(m); err == nil || !strings.Contains(err.Error(), "outside [0, 1]") {
		t.Fatalf("NaN shed ranges accepted (err %v)", err)
	}
}

// FuzzInstallManifest feeds arbitrary bytes through the agent's binary
// install path: decode, the install check, the decider build, and every
// per-session decision. Nothing may panic, and a checked manifest must
// build a decider whatever its contents.
func FuzzInstallManifest(f *testing.F) {
	f.Add(AppendManifestBinary(nil, checkedManifest()))
	f.Add(AppendManifestBinary(nil, hostileManifest(math.MinInt32, 0)))
	f.Add(AppendManifestBinary(nil, hostileManifest(0, 1<<26)))
	f.Add(AppendManifestBinary(nil, nanShedManifest(40)))
	f.Add(AppendManifestBinary(nil, wideManifest(64)))
	f.Add(AppendManifestBinary(nil, wideManifest(65)))
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := DecodeManifestBinary(b)
		if err != nil || checkManifest(m) != nil {
			return
		}
		d := NewDecider(m)
		for i := range fuzzSessions {
			s := &fuzzSessions[i]
			d.DecideMask(s)
			for c := range m.Classes {
				d.ShouldAnalyze(c, *s)
			}
		}
	})
}

// FuzzApplyDelta applies arbitrary binary deltas to a checked base. The
// result is either an error or a manifest that passes the install check
// and survives a binary encode/decode round trip unchanged, and either way
// it matches the map-based reference (delta_ref_test.go) byte for byte.
func FuzzApplyDelta(f *testing.F) {
	base := checkedManifest()
	next := checkedManifest()
	next.Epoch = 4
	next.Assignments[1].Ranges = []WireRange{{Lo: 0.3, Hi: 0.7}}
	next.Shed = nil
	if d, ok := DiffManifests(base, next); ok {
		f.Add(AppendDeltaBinary(nil, d))
	}
	f.Add(AppendDeltaBinary(nil, &WireDelta{Node: 2, BaseEpoch: 3, Epoch: 4,
		Added: []WireAssignment{{Class: 0, Unit: [2]int{1<<32 + 2, 5}, Ranges: []WireRange{{Lo: 0, Hi: 1}}}}}))
	f.Fuzz(func(t *testing.T, b []byte) {
		d, err := DecodeDeltaBinary(b)
		if err != nil {
			return
		}
		m, err := ApplyDelta(base, d)
		want, werr := refApplyDelta(base, d)
		sameErr(t, "ApplyDelta", err, werr)
		if err != nil {
			return
		}
		sameWire(t, "ApplyDelta", m, want, AppendManifestBinary)
		if err := checkManifest(m); err != nil {
			t.Fatalf("ApplyDelta result fails the install check: %v", err)
		}
		wire := AppendManifestBinary(nil, m)
		back, err := DecodeManifestBinary(wire)
		if err != nil {
			t.Fatalf("ApplyDelta result does not decode: %v", err)
		}
		if again := AppendManifestBinary(nil, back); !bytes.Equal(wire, again) {
			t.Fatal("ApplyDelta result does not round-trip through the binary encoding")
		}
	})
}
