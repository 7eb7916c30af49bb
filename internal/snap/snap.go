// Package snap implements the canonical binary codec underneath machine
// snapshots. The format is deliberately rigid so that a snapshot is a pure
// function of the serialized state: every field is fixed-width little-endian,
// booleans are strictly 0/1, variable-length sections are length-prefixed,
// and the stream ends with a CRC-32C checksum over everything before it.
// Rigidity is what makes the round-trip oracle meaningful — any byte stream
// the Reader accepts re-encodes to exactly the same bytes, so
// FuzzSnapshotRoundTrip can assert decode∘encode = identity instead of a
// weaker semantic equivalence.
package snap

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
)

// castagnoli is the CRC-32C table: the polynomial the CPU's CRC32
// instruction computes, so hash/crc32 checksums a stream at memory speed.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// sumBytes is the length of the trailing checksum.
const sumBytes = 4

// Writer accumulates one snapshot stream.
type Writer struct {
	buf []byte
}

// NewWriter returns an empty snapshot writer whose buffer holds size bytes
// before it first grows.
func NewWriter(size int) *Writer { return &Writer{buf: make([]byte, 0, size)} }

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// Bool appends a strict 0/1 byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// U16 appends a little-endian uint16.
func (w *Writer) U16(v uint16) { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }

// U32 appends a little-endian uint32.
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// U64 appends little-endian uint64s, growing the buffer once for all of
// them: a whole word directory is one call.
func (w *Writer) U64(vs ...uint64) {
	n := len(w.buf)
	w.buf = slices.Grow(w.buf, 8*len(vs))[:n+8*len(vs)]
	for i, v := range vs {
		binary.LittleEndian.PutUint64(w.buf[n+8*i:], v)
	}
}

// I64 appends a little-endian int64 (two's complement).
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int appends an int as int64.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// F64 appends the IEEE-754 bit pattern of v.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bytes appends a length-prefixed byte string.
func (w *Writer) Bytes(b []byte) {
	w.U64(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.U64(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Finish appends the CRC-32C checksum of everything written so far and
// returns the completed stream. The writer must not be reused afterwards.
func (w *Writer) Finish() []byte {
	return binary.LittleEndian.AppendUint32(w.buf, crc32.Checksum(w.buf, castagnoli))
}

// Reader consumes a snapshot stream produced by Writer. Errors are sticky:
// after the first failure every accessor returns the zero value and Err
// reports the original cause, so decoders can run straight-line and check
// once at the end.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader verifies the stream's trailing checksum and returns a reader
// over the payload before it.
func NewReader(data []byte) (*Reader, error) {
	if len(data) < sumBytes {
		return nil, fmt.Errorf("snap: stream of %d bytes is shorter than its checksum", len(data))
	}
	payload := data[:len(data)-sumBytes]
	sum := binary.LittleEndian.Uint32(data[len(data)-sumBytes:])
	if got := crc32.Checksum(payload, castagnoli); got != sum {
		return nil, fmt.Errorf("snap: checksum mismatch (stream %08x, computed %08x)", sum, got)
	}
	return &Reader{buf: payload}, nil
}

// Err returns the first decode failure, if any.
func (r *Reader) Err() error { return r.err }

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("snap: "+format+" at offset %d", append(args, r.off)...)
	}
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.fail("truncated stream (need %d bytes, %d left)", n, len(r.buf)-r.off)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a strict 0/1 byte; any other value is a decode error.
func (r *Reader) Bool() bool {
	v := r.U8()
	if r.err == nil && v > 1 {
		r.fail("bool byte %d is not 0 or 1", v)
		return false
	}
	return v == 1
}

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a little-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads an int64 into an int.
func (r *Reader) Int() int { return int(r.I64()) }

// F64 reads an IEEE-754 bit pattern.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Len reads a length prefix and validates it against the bytes remaining,
// scaled by the per-element size — a guard against attacker- or
// fuzzer-controlled lengths driving huge allocations before the stream
// runs out.
func (r *Reader) Len(elemSize int) int {
	n := r.U64()
	if r.err != nil {
		return 0
	}
	if elemSize < 1 {
		elemSize = 1
	}
	if n > uint64(len(r.buf)-r.off)/uint64(elemSize) {
		r.fail("length %d exceeds remaining stream", n)
		return 0
	}
	return int(n)
}

// Bytes reads a length-prefixed byte string (copied out of the stream).
func (r *Reader) Bytes() []byte {
	n := r.Len(1)
	b := r.take(n)
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.Bytes()) }

// Close verifies that the payload was consumed exactly — trailing garbage
// would make re-encoding shorter than the input, breaking canonical
// round-trips — and returns the sticky error, if any.
func (r *Reader) Close() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("snap: %d unconsumed payload bytes", len(r.buf)-r.off)
	}
	return nil
}
