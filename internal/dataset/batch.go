package dataset

import (
	"fmt"

	"repro/internal/wire"
)

// TupleBatch is the columnar (struct-of-arrays) form of a []Tuple with
// uniform arity: ids, names and a flat attribute matrix in row-major order
// with a fixed stride. It is the unit the binary codec ships map input
// splits and shuffle buckets in — classification and predicate evaluation
// over a batch are tight loops over typed slices, and decoding a batch of n
// tuples costs O(1) slice allocations instead of n per-tuple ones.
type TupleBatch struct {
	IDs   []int64
	Names []string
	// Attrs holds all attribute values row-major: tuple i's attributes are
	// Attrs[i*Stride : (i+1)*Stride].
	Attrs  []int64
	Stride int
}

// Len returns the number of tuples in the batch.
func (b *TupleBatch) Len() int { return len(b.IDs) }

// Row returns tuple i's attribute row as a capped view into the flat matrix
// — no copy, and appends through the view cannot clobber the next row.
func (b *TupleBatch) Row(i int) []int64 {
	s := b.Stride
	return b.Attrs[i*s : (i+1)*s : (i+1)*s]
}

// BatchOfTuples converts a row-oriented slice into columnar form. ok is
// false when the tuples have ragged arity (no uniform stride exists), which
// rows checked against one schema never have (Relation.Add,
// live.Population).
func BatchOfTuples(ts []Tuple) (TupleBatch, bool) {
	var b TupleBatch
	if len(ts) == 0 {
		return b, true
	}
	stride := len(ts[0].Attrs)
	for i := range ts {
		if len(ts[i].Attrs) != stride {
			return TupleBatch{}, false
		}
	}
	b.Stride = stride
	b.IDs = make([]int64, len(ts))
	b.Names = make([]string, len(ts))
	b.Attrs = make([]int64, len(ts)*stride)
	for i := range ts {
		b.IDs[i] = ts[i].ID
		b.Names[i] = ts[i].Name
		copy(b.Attrs[i*stride:], ts[i].Attrs)
	}
	return b, true
}

// Tuples converts the batch back to row-oriented form. Each tuple's Attrs
// is a capped view into the batch's flat matrix — one backing allocation
// for the whole batch, so callers must not let tuples outlive a recycled
// decode buffer (frame buffers on the read path are never recycled for
// exactly this reason).
func (b *TupleBatch) Tuples() []Tuple {
	ts := make([]Tuple, b.Len())
	for i := range ts {
		ts[i] = Tuple{ID: b.IDs[i], Name: b.Names[i]}
		if b.Stride > 0 {
			ts[i].Attrs = b.Row(i)
		}
	}
	return ts
}

// AppendWire appends the batch's binary encoding: count, stride, ids as
// delta zigzag varints (populations are mostly id-sorted, so deltas stay
// 1-byte), names length-prefixed, then the attribute matrix column-major —
// values within one attribute column are near each other's magnitude, which
// keeps varints short.
func (b *TupleBatch) AppendWire(buf []byte) []byte {
	n := b.Len()
	buf = wire.AppendUvarint(buf, uint64(n))
	buf = wire.AppendUvarint(buf, uint64(b.Stride))
	prev := int64(0)
	for _, id := range b.IDs {
		buf = wire.AppendVarint(buf, id-prev)
		prev = id
	}
	for _, name := range b.Names {
		buf = wire.AppendString(buf, name)
	}
	for col := 0; col < b.Stride; col++ {
		for row := 0; row < n; row++ {
			buf = wire.AppendVarint(buf, b.Attrs[row*b.Stride+col])
		}
	}
	return buf
}

// ReadTupleBatchWire decodes one AppendWire-encoded batch.
func ReadTupleBatchWire(r *wire.Reader) (TupleBatch, error) {
	var b TupleBatch
	n := r.Count(1)
	stride := r.Uvarint()
	if err := r.Err(); err != nil {
		return b, err
	}
	// Each attr cell costs ≥1 byte, so a hostile stride can't force a huge
	// allocation past the remaining payload.
	if n > 0 && stride > uint64(r.Remaining()/n+1) {
		return b, fmt.Errorf("dataset: batch stride %d exceeds payload: %w", stride, wire.ErrCorrupt)
	}
	b.Stride = int(stride)
	if n == 0 {
		return b, r.Err()
	}
	b.IDs = make([]int64, n)
	prev := int64(0)
	for i := range b.IDs {
		prev += r.Varint()
		b.IDs[i] = prev
	}
	b.Names = make([]string, n)
	for i := range b.Names {
		b.Names[i] = r.String()
	}
	b.Attrs = make([]int64, n*b.Stride)
	for col := 0; col < b.Stride; col++ {
		for row := 0; row < n; row++ {
			b.Attrs[row*b.Stride+col] = r.Varint()
		}
	}
	return b, r.Err()
}
