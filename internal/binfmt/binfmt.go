// Package binfmt is the one binary codec under the repository's stored
// and wire formats: the archive (store), the index, the session
// snapshot (core), the session journal (sessionstore) and the IVRB
// segment-RPC frame (distrib). Each format owns its field list; binfmt
// owns how fields are framed and how hostile bytes are refused.
//
// Writers append: AppendString and AppendBytes sit beside the standard
// library's binary.Append* functions. Decoders walk a Reader, a
// bounds-checked cursor whose first error sticks, so a decoder reads
// its fields in a straight line and checks Done once at the end. No
// read panics, and no length or count is trusted beyond the bytes
// actually present.
package binfmt

import (
	"encoding/binary"
	"fmt"
	"math"
)

// AppendBytes appends b with a uvarint length prefix.
func AppendBytes(dst, b []byte) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(b))), b...)
}

// AppendString appends s with a uvarint length prefix.
func AppendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// Reader decodes a byte slice front to back. The first failed read
// records an error; every later read returns a zero value and leaves
// the error in place, so Done reports the earliest fault.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader over b. Bytes and Rest alias b.
func NewReader(b []byte) Reader { return Reader{buf: b} }

// Fail records err as the reader's error unless an earlier one is
// already recorded; a nil err is ignored. Decoders use it for semantic
// checks (caps, duplicates) so those share the sticky-error path.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *Reader) failf(format string, args ...any) {
	r.Fail(fmt.Errorf(format, args...))
}

func (r *Reader) remaining() int { return len(r.buf) - r.off }

// Done returns the recorded error, or an error if unread bytes remain.
func (r *Reader) Done() error {
	if r.err == nil && r.off != len(r.buf) {
		r.failf("%d trailing bytes", len(r.buf)-r.off)
	}
	return r.err
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.buf) {
		r.failf("truncated byte at offset %d", r.off)
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.failf("bad uvarint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// Varint reads a signed (zig-zag) varint.
func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Bytes reads a uvarint length prefix and that many bytes. The result
// aliases the reader's buffer.
func (r *Reader) Bytes() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(r.remaining()) {
		r.failf("length %d at offset %d exceeds the %d bytes left", n, r.off, r.remaining())
		return nil
	}
	b := r.buf[r.off : r.off+int(n)]
	r.off += int(n)
	return b
}

// String reads a length-prefixed string (a copy).
func (r *Reader) String() string { return string(r.Bytes()) }

// Rest reads every unread byte. The result aliases the reader's buffer.
func (r *Reader) Rest() []byte {
	if r.err != nil {
		return nil
	}
	b := r.buf[r.off:]
	r.off = len(r.buf)
	return b
}

// Float64LE reads the 8 little-endian bytes of an IEEE-754 float64.
func (r *Reader) Float64LE() float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(r.next8()))
}

// Float64BE reads the 8 big-endian bytes of an IEEE-754 float64.
func (r *Reader) Float64BE() float64 {
	return math.Float64frombits(binary.BigEndian.Uint64(r.next8()))
}

var zero8 [8]byte

// next8 consumes 8 bytes; after a fault it returns 8 zero bytes.
func (r *Reader) next8() []byte {
	if r.err != nil {
		return zero8[:]
	}
	if r.remaining() < 8 {
		r.failf("truncated 8-byte field at offset %d", r.off)
		return zero8[:]
	}
	r.off += 8
	return r.buf[r.off-8 : r.off]
}

// Count vets n, an element count the input declares, against the bytes
// left: each element takes at least minElemBytes (values below 1 count
// as 1), so a larger n cannot be genuine. It returns n, or 0 with an
// error recorded, and is what a decoder sizes allocations from.
func (r *Reader) Count(n uint64, minElemBytes int) int {
	if r.err != nil {
		return 0
	}
	if minElemBytes < 1 {
		minElemBytes = 1
	}
	if n > uint64(r.remaining()/minElemBytes) {
		r.failf("count %d at offset %d exceeds the %d bytes left", n, r.off, r.remaining())
		return 0
	}
	return int(n)
}
