package ledger

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrNonFinite rejects NaN/Inf floats at commit time. NaN payloads are
// not one value but a family of bit patterns (quiet/signaling, payload
// bits, sign) that different compilers and architectures propagate
// differently — hashing whichever pattern a platform happened to produce
// would silently fork byte-identical chains. Callers detect it with
// errors.Is.
var ErrNonFinite = errors.New("non-finite float in canonical encoding")

// Enc is the ledger's canonical binary encoder: little-endian fixed
// width for numerics, uvarint length prefixes for bytes/strings/lists.
// The zero value is ready to use. Errors (only ErrNonFinite today) stick
// and surface from Finish, so call sites encode straight-line and check
// once.
type Enc struct {
	buf []byte
	err error
}

// U64 appends a fixed 8-byte little-endian unsigned integer.
func (e *Enc) U64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	e.buf = append(e.buf, b[:]...)
}

// I64 appends a fixed 8-byte little-endian two's-complement integer.
func (e *Enc) I64(v int64) { e.U64(uint64(v)) }

// Bool appends one byte, 0 or 1.
func (e *Enc) Bool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// F64 appends the IEEE-754 bits of a finite float, little-endian. A NaN
// or infinity poisons the encoder with ErrNonFinite.
func (e *Enc) F64(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		if e.err == nil {
			e.err = fmt.Errorf("value %v: %w", v, ErrNonFinite)
		}
		return
	}
	e.U64(math.Float64bits(v))
}

// Bytes appends a uvarint length prefix followed by the raw bytes.
func (e *Enc) Bytes(p []byte) {
	e.buf = binary.AppendUvarint(e.buf, uint64(len(p)))
	e.buf = append(e.buf, p...)
}

// Str appends a string as Bytes.
func (e *Enc) Str(s string) { e.Bytes([]byte(s)) }

// Ints appends a uvarint count followed by each element as I64.
func (e *Enc) Ints(v []int) {
	e.buf = binary.AppendUvarint(e.buf, uint64(len(v)))
	for _, x := range v {
		e.I64(int64(x))
	}
}

// Strs appends a uvarint count followed by each element as Str.
func (e *Enc) Strs(v []string) {
	e.buf = binary.AppendUvarint(e.buf, uint64(len(v)))
	for _, s := range v {
		e.Str(s)
	}
}

// U64s appends a uvarint count followed by each element as U64.
func (e *Enc) U64s(v []uint64) {
	e.buf = binary.AppendUvarint(e.buf, uint64(len(v)))
	for _, x := range v {
		e.U64(x)
	}
}

// Finish returns the canonical bytes, or the first encoding error.
func (e *Enc) Finish() ([]byte, error) {
	if e.err != nil {
		return nil, e.err
	}
	return e.buf, nil
}

// Dec decodes Enc's canonical encoding. The zero offset starts at the
// front; errors stick and surface from Err/Done.
type Dec struct {
	buf []byte
	off int
	err error
}

// NewDec wraps canonical bytes for decoding.
func NewDec(b []byte) *Dec { return &Dec{buf: b} }

func (d *Dec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("ledger: truncated canonical encoding at %s (offset %d)", what, d.off)
	}
}

// U64 reads a fixed 8-byte little-endian unsigned integer.
func (d *Dec) U64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.buf) {
		d.fail("u64")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

// I64 reads a fixed 8-byte little-endian signed integer.
func (d *Dec) I64() int64 { return int64(d.U64()) }

// Bool reads one byte as a boolean.
func (d *Dec) Bool() bool {
	if d.err != nil {
		return false
	}
	if d.off >= len(d.buf) {
		d.fail("bool")
		return false
	}
	v := d.buf[d.off]
	d.off++
	return v != 0
}

// F64 reads IEEE-754 bits. A NaN or infinity fails the decode: Enc
// refuses them, so no canonical encoding carries one.
func (d *Dec) F64() float64 {
	v := math.Float64frombits(d.U64())
	if math.IsNaN(v) || math.IsInf(v, 0) {
		if d.err == nil {
			d.err = fmt.Errorf("ledger: non-finite float at offset %d: %w", d.off-8, ErrNonFinite)
		}
		return 0
	}
	return v
}

// uvarint reads the uvarint length prefix of what, a list of items that
// take at least size bytes each. A length the bytes left cannot hold fails
// the decode before anything is allocated for it.
func (d *Dec) uvarint(what string, size int) int {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail(what + " length")
		return 0
	}
	d.off += n
	if v > uint64((len(d.buf)-d.off)/size) {
		d.fail(what)
		return 0
	}
	return int(v)
}

// Bytes reads a length-prefixed byte string.
func (d *Dec) Bytes() []byte {
	n := d.uvarint("bytes", 1)
	if d.err != nil {
		return nil
	}
	out := d.buf[d.off : d.off+n]
	d.off += n
	return out
}

// Str reads a length-prefixed string.
func (d *Dec) Str() string { return string(d.Bytes()) }

// Ints reads a count-prefixed []int.
func (d *Dec) Ints() []int {
	n := d.uvarint("ints", 8)
	if n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(d.I64())
	}
	return out
}

// Strs reads a count-prefixed []string.
func (d *Dec) Strs() []string {
	n := d.uvarint("strs", 1) // each string carries at least its length byte
	if n == 0 {
		return nil
	}
	out := make([]string, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		out = append(out, d.Str())
	}
	if d.err != nil {
		return nil
	}
	return out
}

// U64s reads a count-prefixed []uint64.
func (d *Dec) U64s() []uint64 {
	n := d.uvarint("u64s", 8)
	if n == 0 {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = d.U64()
	}
	return out
}

// Err returns the sticky decoding error, if any.
func (d *Dec) Err() error { return d.err }

// Done returns an error if decoding failed or bytes remain unconsumed —
// canonical encodings have no slack.
func (d *Dec) Done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("ledger: %d trailing bytes in canonical encoding", len(d.buf)-d.off)
	}
	return nil
}
