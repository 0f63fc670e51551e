// Package wire is the hand-rolled binary codec of everything that crosses
// a process boundary: append-style encoders over plain byte slices and a
// bounds-checked Reader with zero-copy views, on the coordinator↔worker
// protocol and the shuffle data plane.
//
// The format is deliberately primitive: unsigned and zigzag varints for
// integers, length-delimited byte strings, and nothing self-describing —
// every payload's layout is fixed by the code on both ends and versioned by
// the frame protocol's wire version (see internal/worker). That
// is what buys the speed: no field names, no type descriptors, no interface
// dispatch, and decoding that can return sub-slice views into the frame
// buffer instead of copying payload bytes.
//
// Decoding never panics on hostile input. Every read is bounds-checked and
// the Reader carries a sticky *DecodeError wrapping ErrTruncated or
// ErrCorrupt, so a corrupted frame surfaces as one named error, not a crash
// — the worker pool treats it like any other connection failure.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sync"
)

// Sentinel causes of a DecodeError.
var (
	// ErrTruncated reports a payload that ended before a field's bytes.
	ErrTruncated = errors.New("truncated payload")
	// ErrCorrupt reports bytes that cannot be a valid encoding (varint
	// overflow, length prefix exceeding the payload, bad enum value).
	ErrCorrupt = errors.New("corrupt payload")
)

// DecodeError is the named error a Reader sticks on the first failed read.
// It wraps ErrTruncated or ErrCorrupt and records the payload offset.
type DecodeError struct {
	// Offset is the byte offset the failed read started at.
	Offset int
	// Err is ErrTruncated or ErrCorrupt.
	Err error
}

// Error renders the failure with its offset.
func (e *DecodeError) Error() string {
	return fmt.Sprintf("wire: %v at offset %d", e.Err, e.Offset)
}

// Unwrap exposes the sentinel cause for errors.Is.
func (e *DecodeError) Unwrap() error { return e.Err }

// --- append-style encoders -------------------------------------------------

// AppendUvarint appends v in unsigned LEB128 form.
func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendVarint appends v in zigzag varint form (small magnitudes of either
// sign stay short).
func AppendVarint(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

// AppendString appends a length-prefixed string.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendBytes appends a length-prefixed byte slice. A nil slice encodes
// exactly like an empty one; Reader.Bytes returns nil for both, which the
// protocol layer relies on (nil bucket entries are hole markers).
func AppendBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// SizeUvarint is the encoded length of AppendUvarint(v).
func SizeUvarint(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// SizeVarint is the encoded length of AppendVarint(v).
func SizeVarint(v int64) int {
	return SizeUvarint(uint64(v)<<1 ^ uint64(v>>63)) // zigzag, as encoding/binary does
}

// --- decoding --------------------------------------------------------------

// Reader decodes a payload encoded with the Append functions. The first
// failed read sticks a *DecodeError; every later read returns zero values,
// so a decode function can run its full field sequence and check Err (or
// Done) once at the end.
type Reader struct {
	buf []byte
	off int
	err *DecodeError
}

// NewReader returns a Reader over payload. The Reader never writes to the
// payload but Bytes returns views into it, so the payload must not be
// recycled while any decoded view is alive.
func NewReader(payload []byte) *Reader { return &Reader{buf: payload} }

// Err returns the sticky decode error, nil while all reads succeeded.
func (r *Reader) Err() error {
	if r.err == nil {
		return nil
	}
	return r.err
}

// Remaining reports how many bytes are left.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Done returns the sticky error, or an ErrCorrupt-wrapping error when the
// payload has trailing bytes past the decoded value.
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return &DecodeError{Offset: r.off, Err: fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(r.buf)-r.off)}
	}
	return nil
}

func (r *Reader) fail(cause error) {
	if r.err == nil {
		r.err = &DecodeError{Offset: r.off, Err: cause}
	}
}

// Uvarint reads one unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		if n == 0 {
			r.fail(ErrTruncated)
		} else {
			r.fail(fmt.Errorf("%w: uvarint overflow", ErrCorrupt))
		}
		return 0
	}
	r.off += n
	return v
}

// Varint reads one zigzag varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		if n == 0 {
			r.fail(ErrTruncated)
		} else {
			r.fail(fmt.Errorf("%w: varint overflow", ErrCorrupt))
		}
		return 0
	}
	r.off += n
	return v
}

// Byte reads one raw byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.buf) {
		r.fail(ErrTruncated)
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

// Bytes reads one length-prefixed byte slice as a view into the payload —
// no copy. A zero-length field decodes as nil. The length prefix is checked
// against the remaining payload before any slicing, so a hostile prefix can
// neither panic nor allocate.
func (r *Reader) Bytes() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(r.Remaining()) {
		r.fail(fmt.Errorf("%w: %d-byte field exceeds %d remaining", ErrCorrupt, n, r.Remaining()))
		return nil
	}
	if n == 0 {
		return nil
	}
	v := r.buf[r.off : r.off+int(n) : r.off+int(n)]
	r.off += int(n)
	return v
}

// String reads one length-prefixed string (this one copies — Go strings
// must own their bytes).
func (r *Reader) String() string { return string(r.Bytes()) }

// Count reads a length prefix for a slice about to be allocated and bounds
// it: a valid encoding spends at least min bytes per element, so any count
// beyond Remaining()/min is corrupt, not merely large. This keeps a hostile
// length prefix from turning into a giant make().
func (r *Reader) Count(min int) int {
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if min < 1 {
		min = 1
	}
	if n > uint64(r.Remaining()/min) {
		r.fail(fmt.Errorf("%w: count %d exceeds remaining payload", ErrCorrupt, n))
		return 0
	}
	return int(n)
}

// --- pooled scratch buffers ------------------------------------------------

// maxPooledBuffer bounds what PutBuffer keeps: the occasional giant frame
// (a 10^5-tuple split) should not pin its buffer in the pool forever.
const maxPooledBuffer = 1 << 20

var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// GetBuffer returns a zero-length scratch buffer from the pool. Append into
// it and hand it back with PutBuffer once the bytes have been consumed
// (written to a socket, copied out); never retain a view into it afterwards.
func GetBuffer() []byte {
	return (*bufPool.Get().(*[]byte))[:0]
}

// PutBuffer recycles a buffer obtained from GetBuffer (grown or not).
// Oversized buffers are dropped so steady-state pool memory stays bounded.
func PutBuffer(b []byte) {
	if cap(b) == 0 || cap(b) > maxPooledBuffer {
		return
	}
	b = b[:0]
	bufPool.Put(&b)
}
