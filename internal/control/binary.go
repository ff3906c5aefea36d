package control

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Compact binary wire encoding, negotiated per request alongside the
// golden JSON one (request field "enc":"bin", protocol v2). The layout is
// varint-based: small integers (node ids, epochs, counts) cost one byte,
// range bounds are exact 8-byte float bit patterns, and none of JSON's
// field-name or digit overhead is paid. A binary response is framed as a
// 4-byte big-endian length followed by the payload; payloads are far below
// 2^24 bytes, so the first frame byte is always 0x00 — which is how an
// agent that asked for binary recognizes a legacy JSON error line ('{')
// from a controller that predates the encoding.

// binVersion is the binary payload version, bumped only on layout breaks.
const binVersion = 2

// Binary response kinds.
const (
	binKindEpoch byte = iota // epoch only (up-to-date probe answer)
	binKindManifest
	binKindDelta
	binKindErr
)

// maxBinFrame bounds a binary response frame read on the agent side, the
// same defensive cap the controller applies to request lines.
const maxBinFrame = 16 << 20

var errBinTruncated = errors.New("control: truncated binary payload")

// bwriter accumulates a binary payload.
type bwriter struct{ b []byte }

func (w *bwriter) byte(c byte)      { w.b = append(w.b, c) }
func (w *bwriter) uvarint(v uint64) { w.b = binary.AppendUvarint(w.b, v) }
func (w *bwriter) varint(v int64)   { w.b = binary.AppendVarint(w.b, v) }
func (w *bwriter) f64(f float64) {
	w.b = binary.LittleEndian.AppendUint64(w.b, math.Float64bits(f))
}
func (w *bwriter) str(s string) {
	w.uvarint(uint64(len(s)))
	w.b = append(w.b, s...)
}

// breader consumes a binary payload, latching the first error.
type breader struct {
	b   []byte
	off int
	err error
}

func (r *breader) fail() {
	if r.err == nil {
		r.err = errBinTruncated
	}
}

func (r *breader) byte() byte {
	if r.err != nil || r.off >= len(r.b) {
		r.fail()
		return 0
	}
	c := r.b[r.off]
	r.off++
	return c
}

func (r *breader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

func (r *breader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

func (r *breader) f64() float64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.fail()
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return v
}

func (r *breader) str() string {
	n := r.uvarint()
	if r.err != nil || r.off+int(n) > len(r.b) || n > uint64(len(r.b)) {
		r.fail()
		return ""
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

// count reads a length prefix and sanity-bounds it against the remaining
// payload so a corrupt prefix cannot drive a huge allocation.
func (r *breader) count() int {
	n := r.uvarint()
	if r.err == nil && n > uint64(len(r.b)-r.off) {
		r.fail()
	}
	return int(n)
}

func appendAssignments(w *bwriter, as []WireAssignment) {
	w.uvarint(uint64(len(as)))
	for _, a := range as {
		w.varint(int64(a.Class))
		w.varint(int64(a.Unit[0]))
		w.varint(int64(a.Unit[1]))
		w.uvarint(uint64(len(a.Ranges)))
		for _, rg := range a.Ranges {
			w.f64(rg.Lo)
			w.f64(rg.Hi)
		}
	}
}

func readAssignments(r *breader) []WireAssignment {
	n := r.count()
	if r.err != nil || n == 0 {
		return nil
	}
	as := make([]WireAssignment, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		a := WireAssignment{Class: int(r.varint())}
		a.Unit[0] = int(r.varint())
		a.Unit[1] = int(r.varint())
		nr := r.count()
		for j := 0; j < nr && r.err == nil; j++ {
			a.Ranges = append(a.Ranges, WireRange{Lo: r.f64(), Hi: r.f64()})
		}
		as = append(as, a)
	}
	return as
}

func appendTrace(w *bwriter, wt *WireTrace) {
	if wt == nil {
		w.byte(0)
		return
	}
	w.byte(1)
	w.str(wt.Trace)
	w.str(wt.Span)
}

func readTrace(r *breader) *WireTrace {
	if r.byte() == 0 {
		return nil
	}
	return &WireTrace{Trace: r.str(), Span: r.str()}
}

// AppendManifestBinary appends the compact binary form of a manifest.
func AppendManifestBinary(dst []byte, m *Manifest) []byte {
	w := &bwriter{b: dst}
	w.varint(int64(m.Node))
	w.uvarint(m.Epoch)
	w.uvarint(uint64(m.HashKey))
	w.uvarint(uint64(len(m.Classes)))
	for _, c := range m.Classes {
		w.str(c.Name)
		w.varint(int64(c.Scope))
		w.varint(int64(c.Agg))
		w.uvarint(uint64(len(c.Ports)))
		for _, p := range c.Ports {
			w.uvarint(uint64(p))
		}
		w.byte(c.Transport)
	}
	appendAssignments(w, m.Assignments)
	appendAssignments(w, m.Shed)
	appendTrace(w, m.Trace)
	return w.b
}

// DecodeManifestBinary parses AppendManifestBinary's output.
func DecodeManifestBinary(b []byte) (*Manifest, error) {
	r := &breader{b: b}
	m := &Manifest{
		Node:    int(r.varint()),
		Epoch:   r.uvarint(),
		HashKey: uint32(r.uvarint()),
	}
	nc := r.count()
	for i := 0; i < nc && r.err == nil; i++ {
		c := WireClass{Name: r.str(), Scope: int(r.varint()), Agg: int(r.varint())}
		np := r.count()
		for j := 0; j < np && r.err == nil; j++ {
			c.Ports = append(c.Ports, uint16(r.uvarint()))
		}
		c.Transport = r.byte()
		m.Classes = append(m.Classes, c)
	}
	m.Assignments = readAssignments(r)
	m.Shed = readAssignments(r)
	m.Trace = readTrace(r)
	if r.err != nil {
		return nil, fmt.Errorf("control: decode binary manifest: %w", r.err)
	}
	return m, nil
}

// AppendDeltaBinary appends the compact binary form of a delta.
func AppendDeltaBinary(dst []byte, d *WireDelta) []byte {
	w := &bwriter{b: dst}
	w.varint(int64(d.Node))
	w.uvarint(d.BaseEpoch)
	w.uvarint(d.Epoch)
	appendAssignments(w, d.Added)
	appendAssignments(w, d.Removed)
	if d.ShedChanged {
		w.byte(1)
		appendAssignments(w, d.Shed)
	} else {
		w.byte(0)
	}
	appendTrace(w, d.Trace)
	return w.b
}

// DecodeDeltaBinary parses AppendDeltaBinary's output.
func DecodeDeltaBinary(b []byte) (*WireDelta, error) {
	r := &breader{b: b}
	d := &WireDelta{
		Node:      int(r.varint()),
		BaseEpoch: r.uvarint(),
		Epoch:     r.uvarint(),
	}
	d.Added = readAssignments(r)
	d.Removed = readAssignments(r)
	if r.byte() == 1 {
		d.ShedChanged = true
		d.Shed = readAssignments(r)
	}
	d.Trace = readTrace(r)
	if r.err != nil {
		return nil, fmt.Errorf("control: decode binary delta: %w", r.err)
	}
	return d, nil
}

// appendBinaryResponse appends a response to dst as one framed binary
// payload: it reserves the 4-byte big-endian length, appends the payload
// after it and back-patches the length, so the frame is built in place.
func appendBinaryResponse(dst []byte, resp *response) []byte {
	start := len(dst)
	w := bwriter{b: append(dst, 0, 0, 0, 0)}
	w.byte(binVersion)
	switch {
	case resp.Err != "":
		w.byte(binKindErr)
		w.uvarint(resp.Epoch)
		w.str(resp.Err)
	case resp.Manifest != nil:
		w.byte(binKindManifest)
		w.uvarint(resp.Epoch)
		w.b = AppendManifestBinary(w.b, resp.Manifest)
	case resp.Delta != nil:
		w.byte(binKindDelta)
		w.uvarint(resp.Epoch)
		w.b = AppendDeltaBinary(w.b, resp.Delta)
	default:
		w.byte(binKindEpoch)
		w.uvarint(resp.Epoch)
	}
	binary.BigEndian.PutUint32(w.b[start:], uint32(len(w.b)-start-4))
	return w.b
}

// decodeBinaryResponse parses a binary payload into the response shape the
// JSON path produces, so everything above the codec is encoding-agnostic.
func decodeBinaryResponse(b []byte) (*response, error) {
	r := &breader{b: b}
	if v := r.byte(); r.err == nil && v != binVersion {
		return nil, fmt.Errorf("control: binary payload version %d, want %d", v, binVersion)
	}
	kind := r.byte()
	resp := &response{V: ProtocolV2, Epoch: r.uvarint()}
	if r.err != nil {
		return nil, fmt.Errorf("control: decode binary response: %w", r.err)
	}
	body := r.b[r.off:]
	switch kind {
	case binKindEpoch:
	case binKindErr:
		resp.Err = r.str()
		if r.err != nil {
			return nil, fmt.Errorf("control: decode binary response: %w", r.err)
		}
	case binKindManifest:
		m, err := DecodeManifestBinary(body)
		if err != nil {
			return nil, err
		}
		resp.Manifest = m
	case binKindDelta:
		d, err := DecodeDeltaBinary(body)
		if err != nil {
			return nil, err
		}
		resp.Delta = d
	default:
		return nil, fmt.Errorf("control: unknown binary response kind %d", kind)
	}
	return resp, nil
}
