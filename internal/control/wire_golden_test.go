package control

import (
	"encoding/hex"
	"encoding/json"
	"reflect"
	"testing"
)

// TestManifestWireFormatGolden pins the exact JSON wire format of a
// manifest. Agents in the field parse this encoding; any change to field
// names, omitempty behavior, or nesting is a protocol break and must fail
// here before it ships.
func TestManifestWireFormatGolden(t *testing.T) {
	m := &Manifest{
		Node:    3,
		Epoch:   17,
		HashKey: 0xbeef,
		Classes: []WireClass{
			{Name: "signature"},
			{Name: "http", Scope: 1, Agg: 2, Ports: []uint16{80, 8080}, Transport: 6},
		},
		Assignments: []WireAssignment{
			{Class: 0, Unit: [2]int{2, 5}, Ranges: []WireRange{{Lo: 0, Hi: 0.25}, {Lo: 0.75, Hi: 1}}},
			{Class: 1, Unit: [2]int{4, -1}, Ranges: []WireRange{{Lo: 0.25, Hi: 0.5}}},
		},
	}

	const golden = `{"node":3,"epoch":17,"hash_key":48879,` +
		`"classes":[` +
		`{"name":"signature","scope":0,"agg":0},` +
		`{"name":"http","scope":1,"agg":2,"ports":[80,8080],"transport":6}],` +
		`"assignments":[` +
		`{"class":0,"unit":[2,5],"ranges":[{"lo":0,"hi":0.25},{"lo":0.75,"hi":1}]},` +
		`{"class":1,"unit":[4,-1],"ranges":[{"lo":0.25,"hi":0.5}]}]}`

	got, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != golden {
		t.Fatalf("wire format drifted:\n got: %s\nwant: %s", got, golden)
	}

	// The encoding must round-trip losslessly.
	var back Manifest
	if err := json.Unmarshal([]byte(golden), &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, m) {
		t.Fatalf("round trip mismatch:\n got: %+v\nwant: %+v", &back, m)
	}
}

// TestManifestWireFormatGoldenWithTrace pins the encoding of the optional
// trace-context header: present, it appends one "trace" object after
// "shed"; absent (the case above), the base encoding is untouched.
func TestManifestWireFormatGoldenWithTrace(t *testing.T) {
	m := &Manifest{
		Node:    1,
		Epoch:   4,
		HashKey: 7,
		Classes: []WireClass{{Name: "signature"}},
		Assignments: []WireAssignment{
			{Class: 0, Unit: [2]int{0, -1}, Ranges: []WireRange{{Lo: 0, Hi: 1}}},
		},
		Shed: []WireAssignment{
			{Class: 0, Unit: [2]int{0, -1}, Ranges: []WireRange{{Lo: 0.5, Hi: 1}}},
		},
		Trace: &WireTrace{Trace: "00000000deadbeef", Span: "00000000cafef00d"},
	}

	const golden = `{"node":1,"epoch":4,"hash_key":7,` +
		`"classes":[{"name":"signature","scope":0,"agg":0}],` +
		`"assignments":[{"class":0,"unit":[0,-1],"ranges":[{"lo":0,"hi":1}]}],` +
		`"shed":[{"class":0,"unit":[0,-1],"ranges":[{"lo":0.5,"hi":1}]}],` +
		`"trace":{"trace":"00000000deadbeef","span":"00000000cafef00d"}}`

	got, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != golden {
		t.Fatalf("wire format drifted:\n got: %s\nwant: %s", got, golden)
	}
	var back Manifest
	if err := json.Unmarshal([]byte(golden), &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, m) {
		t.Fatalf("round trip mismatch:\n got: %+v\nwant: %+v", &back, m)
	}
}

// TestManifestDecodesWithoutTraceField pins backward compatibility: wire
// bytes produced by pre-trace controllers (no "trace" key at all) decode
// into a manifest whose Trace is nil, and the decider built from it
// reports no trace context.
func TestManifestDecodesWithoutTraceField(t *testing.T) {
	const old = `{"node":2,"epoch":9,"hash_key":1,` +
		`"classes":[{"name":"signature","scope":0,"agg":0}],` +
		`"assignments":[{"class":0,"unit":[1,-1],"ranges":[{"lo":0,"hi":0.5}]}]}`
	var m Manifest
	if err := json.Unmarshal([]byte(old), &m); err != nil {
		t.Fatalf("pre-trace manifest failed to decode: %v", err)
	}
	if m.Trace != nil {
		t.Fatalf("pre-trace manifest decoded with trace context: %+v", m.Trace)
	}
	if d := NewDecider(&m); d.TraceContext() != nil {
		t.Fatal("decider invented a trace context")
	}
	if m.Node != 2 || m.Epoch != 9 || len(m.Assignments) != 1 {
		t.Fatalf("pre-trace manifest fields lost: %+v", m)
	}
}

// TestDeltaWireFormatGolden pins the JSON wire form of a WireDelta — the
// v2 protocol's incremental payload. Like the manifest golden above, any
// drift in field names or omitempty behavior is a protocol break.
func TestDeltaWireFormatGolden(t *testing.T) {
	d := &WireDelta{
		Node:      3,
		BaseEpoch: 17,
		Epoch:     18,
		Added:     []WireAssignment{{Class: 0, Unit: [2]int{2, 5}, Ranges: []WireRange{{Lo: 0.25, Hi: 0.5}}}},
		Removed:   []WireAssignment{{Class: 1, Unit: [2]int{4, -1}, Ranges: []WireRange{{Lo: 0.25, Hi: 0.375}}}},
	}

	const golden = `{"node":3,"base_epoch":17,"epoch":18,` +
		`"added":[{"class":0,"unit":[2,5],"ranges":[{"lo":0.25,"hi":0.5}]}],` +
		`"removed":[{"class":1,"unit":[4,-1],"ranges":[{"lo":0.25,"hi":0.375}]}]}`

	got, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != golden {
		t.Fatalf("delta wire format drifted:\n got: %s\nwant: %s", got, golden)
	}
	var back WireDelta
	if err := json.Unmarshal([]byte(golden), &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, d) {
		t.Fatalf("round trip mismatch:\n got: %+v\nwant: %+v", &back, d)
	}
}

// TestRequestResponseV1Golden pins the v1 exchange byte-for-byte: the v2
// fields (v, enc, have, delta) are all omitempty, so a v1 agent's request
// and a controller's v1 answer must encode exactly as they did before the
// versioned protocol existed. This is the compatibility contract that
// lets old and new peers interoperate without negotiation.
func TestRequestResponseV1Golden(t *testing.T) {
	reqGot, err := json.Marshal(request{Op: "manifest", Node: 3})
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"op":"manifest","node":3}`; string(reqGot) != want {
		t.Fatalf("v1 request drifted:\n got: %s\nwant: %s", reqGot, want)
	}
	respGot, err := json.Marshal(response{Epoch: 9})
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"epoch":9}`; string(respGot) != want {
		t.Fatalf("v1 response drifted:\n got: %s\nwant: %s", respGot, want)
	}
	// And the v2 request shape, equally pinned so controllers can rely on
	// the field names.
	req2Got, err := json.Marshal(request{Op: "delta", Node: 3, V: 2, Enc: "bin", Have: 17})
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"op":"delta","node":3,"v":2,"enc":"bin","have":17}`; string(req2Got) != want {
		t.Fatalf("v2 request drifted:\n got: %s\nwant: %s", req2Got, want)
	}
}

// TestManifestBinaryGolden pins the compact binary encoding of the same
// manifest the JSON golden uses. The byte layout is the v2 "enc":"bin"
// wire contract.
func TestManifestBinaryGolden(t *testing.T) {
	m := &Manifest{
		Node:    3,
		Epoch:   17,
		HashKey: 0xbeef,
		Classes: []WireClass{
			{Name: "signature"},
			{Name: "http", Scope: 1, Agg: 2, Ports: []uint16{80, 8080}, Transport: 6},
		},
		Assignments: []WireAssignment{
			{Class: 0, Unit: [2]int{2, 5}, Ranges: []WireRange{{Lo: 0, Hi: 0.25}, {Lo: 0.75, Hi: 1}}},
			{Class: 1, Unit: [2]int{4, -1}, Ranges: []WireRange{{Lo: 0.25, Hi: 0.5}}},
		},
	}
	const golden = "0611effd0202097369676e617475726500000000046874747002040250903f0602000" +
		"40a020000000000000000000000000000d03f000000000000e83f000000000000f03f0208010" +
		"1000000000000d03f000000000000e03f0000"
	got := hex.EncodeToString(AppendManifestBinary(nil, m))
	if got != golden {
		t.Fatalf("binary manifest encoding drifted:\n got: %s\nwant: %s", got, golden)
	}
	raw, _ := hex.DecodeString(golden)
	back, err := DecodeManifestBinary(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, m) {
		t.Fatalf("binary round trip mismatch:\n got: %+v\nwant: %+v", back, m)
	}
}

// TestDeltaBinaryGolden pins the compact binary encoding of a delta,
// including the shed-replacement flag and trace context.
func TestDeltaBinaryGolden(t *testing.T) {
	d := &WireDelta{
		Node: 3, BaseEpoch: 17, Epoch: 18,
		Added:       []WireAssignment{{Class: 0, Unit: [2]int{2, 5}, Ranges: []WireRange{{Lo: 0.25, Hi: 0.5}}}},
		Removed:     []WireAssignment{{Class: 1, Unit: [2]int{4, -1}, Ranges: []WireRange{{Lo: 0.25, Hi: 0.375}}}},
		ShedChanged: true,
		Shed:        []WireAssignment{{Class: 0, Unit: [2]int{2, 5}, Ranges: []WireRange{{Lo: 0.9, Hi: 1}}}},
		Trace:       &WireTrace{Trace: "00000000deadbeef", Span: "00000000cafef00d"},
	}
	const golden = "0611120100040a01000000000000d03f000000000000e03f0102080101000000000000d03f0" +
		"00000000000d83f010100040a01cdccccccccccec3f000000000000f03f011030303030303030" +
		"3064656164626565661030303030303030306361666566303064"
	got := hex.EncodeToString(AppendDeltaBinary(nil, d))
	if got != golden {
		t.Fatalf("binary delta encoding drifted:\n got: %s\nwant: %s", got, golden)
	}
	raw, _ := hex.DecodeString(golden)
	back, err := DecodeDeltaBinary(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, d) {
		t.Fatalf("binary round trip mismatch:\n got: %+v\nwant: %+v", back, d)
	}
}

// TestBinaryResponseFrameGolden pins a framed v2 binary answer: the 4-byte
// big-endian payload length, then the payload (binary version 2, kind 2 =
// delta, the epoch as a uvarint, the delta of TestDeltaBinaryGolden). The
// frame is built in place after whatever dst already holds.
func TestBinaryResponseFrameGolden(t *testing.T) {
	d := &WireDelta{
		Node: 3, BaseEpoch: 17, Epoch: 18,
		Added: []WireAssignment{{Class: 0, Unit: [2]int{2, 5}, Ranges: []WireRange{{Lo: 0.25, Hi: 0.5}}}},
	}
	const golden = "0000001e" + "020212" + "0611120100040a01000000000000d03f000000000000e03f000000"
	frame := appendBinaryResponse(nil, &response{Epoch: 18, Delta: d})
	if got := hex.EncodeToString(frame); got != golden {
		t.Fatalf("binary answer frame drifted:\n got: %s\nwant: %s", got, golden)
	}
	if got := appendBinaryResponse([]byte("ab"), &response{Epoch: 18, Delta: d}); string(got) != "ab"+string(frame) {
		t.Fatalf("frame after a prefix: %x", got)
	}
	if got := hex.EncodeToString(appendBinaryResponse(nil, &response{Epoch: 300})); got != "00000004"+"0200ac02" {
		t.Fatalf("epoch-only answer frame drifted: %s", got)
	}
}

// TestBinaryResponseTruncation: every truncation of a valid binary
// payload must fail cleanly, never panic or mis-decode.
func TestBinaryResponseTruncation(t *testing.T) {
	m := &Manifest{
		Node: 1, Epoch: 2, HashKey: 3,
		Classes:     []WireClass{{Name: "x", Ports: []uint16{80}}},
		Assignments: []WireAssignment{{Class: 0, Unit: [2]int{0, -1}, Ranges: []WireRange{{Lo: 0, Hi: 1}}}},
	}
	full := AppendManifestBinary(nil, m)
	for cut := 0; cut < len(full); cut++ {
		if _, err := DecodeManifestBinary(full[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d decoded without error", cut, len(full))
		}
	}
}
