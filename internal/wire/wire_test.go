package wire

import (
	"errors"
	"math"
	"testing"
)

func TestVarintRoundTrip(t *testing.T) {
	vals := []int64{0, 1, -1, 63, -64, 64, 1 << 20, -(1 << 20), math.MaxInt64, math.MinInt64}
	var b []byte
	for _, v := range vals {
		if got := len(AppendVarint(nil, v)); got != SizeVarint(v) {
			t.Errorf("SizeVarint(%d) = %d, encoded %d bytes", v, SizeVarint(v), got)
		}
		b = AppendVarint(b, v)
	}
	r := NewReader(b)
	for _, v := range vals {
		if got := r.Varint(); got != v {
			t.Errorf("Varint() = %d, want %d", got, v)
		}
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

func TestUvarintRoundTrip(t *testing.T) {
	vals := []uint64{0, 1, 127, 128, 1 << 14, 1 << 30, math.MaxUint64}
	var b []byte
	for _, v := range vals {
		if got := len(AppendUvarint(nil, v)); got != SizeUvarint(v) {
			t.Errorf("SizeUvarint(%d) = %d, encoded %d bytes", v, SizeUvarint(v), got)
		}
		b = AppendUvarint(b, v)
	}
	r := NewReader(b)
	for _, v := range vals {
		if got := r.Uvarint(); got != v {
			t.Errorf("Uvarint() = %d, want %d", got, v)
		}
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

func TestStringBytesRoundTrip(t *testing.T) {
	var b []byte
	b = AppendString(b, "")
	b = AppendString(b, "héllo")
	b = AppendBytes(b, nil)
	b = AppendBytes(b, []byte{1, 2, 3})
	r := NewReader(b)
	if s := r.String(); s != "" {
		t.Errorf("empty string decoded as %q", s)
	}
	if s := r.String(); s != "héllo" {
		t.Errorf("string decoded as %q", s)
	}
	if p := r.Bytes(); p != nil {
		t.Errorf("nil bytes decoded as %v", p)
	}
	if p := r.Bytes(); len(p) != 3 || p[0] != 1 || p[2] != 3 {
		t.Errorf("bytes decoded as %v", p)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestBytesZeroCopy locks the aliasing contract: Bytes returns a view into
// the source payload, not a copy.
func TestBytesZeroCopy(t *testing.T) {
	b := AppendBytes(nil, []byte{9, 9, 9})
	r := NewReader(b)
	v := r.Bytes()
	b[len(b)-1] = 42
	if v[2] != 42 {
		t.Error("Bytes() copied instead of aliasing the payload")
	}
}

func TestTruncatedAndCorrupt(t *testing.T) {
	cases := []struct {
		name string
		buf  []byte
		read func(*Reader)
		want error
	}{
		{"empty uvarint", nil, func(r *Reader) { r.Uvarint() }, ErrTruncated},
		{"unterminated uvarint", []byte{0x80}, func(r *Reader) { r.Uvarint() }, ErrTruncated},
		{"uvarint overflow", []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02}, func(r *Reader) { r.Uvarint() }, ErrCorrupt},
		{"empty varint", nil, func(r *Reader) { r.Varint() }, ErrTruncated},
		{"empty byte", nil, func(r *Reader) { r.Byte() }, ErrTruncated},
		{"bytes length past end", []byte{5, 1, 2}, func(r *Reader) { r.Bytes() }, ErrCorrupt},
		{"huge count", []byte{0xFF, 0xFF, 0xFF, 0xFF, 0x0F}, func(r *Reader) { r.Count(1) }, ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewReader(tc.buf)
			tc.read(r)
			err := r.Err()
			if err == nil {
				t.Fatal("no error")
			}
			if !errors.Is(err, tc.want) {
				t.Errorf("error %v, want %v", err, tc.want)
			}
			var de *DecodeError
			if !errors.As(err, &de) {
				t.Errorf("error %T is not *DecodeError", err)
			}
			// Sticky: subsequent reads keep the first error and stay safe.
			r.Uvarint()
			r.Bytes()
			if !errors.Is(r.Err(), tc.want) {
				t.Error("error not sticky")
			}
		})
	}
}

func TestDoneTrailing(t *testing.T) {
	r := NewReader([]byte{1, 2})
	r.Byte()
	if err := r.Done(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Done with trailing bytes = %v, want ErrCorrupt", err)
	}
}

func TestBufferPool(t *testing.T) {
	b := GetBuffer()
	if len(b) != 0 {
		t.Fatal("pooled buffer not empty")
	}
	b = AppendString(b, "scratch")
	PutBuffer(b)
	b2 := GetBuffer()
	if len(b2) != 0 {
		t.Fatal("recycled buffer not reset")
	}
	PutBuffer(b2)
	PutBuffer(make([]byte, 0, maxPooledBuffer+1)) // dropped, not kept
}
