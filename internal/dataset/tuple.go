package dataset

import (
	"fmt"
	"strconv"

	"repro/internal/wire"
)

// Tuple represents one individual of the surveyed population. ID is a unique
// identifier (the paper's "id" attribute), Name a display name, and Attrs the
// integer attribute values in schema order.
type Tuple struct {
	ID    int64
	Name  string
	Attrs []int64
}

// Attr returns the value of the i-th attribute.
func (t *Tuple) Attr(i int) int64 { return t.Attrs[i] }

// Clone returns a deep copy of the tuple.
func (t *Tuple) Clone() Tuple {
	attrs := make([]int64, len(t.Attrs))
	copy(attrs, t.Attrs)
	return Tuple{ID: t.ID, Name: t.Name, Attrs: attrs}
}

// ResidentBytes estimates the memory the tuple occupies in a resident split:
// its header (ID, string and slice headers) plus name bytes and attribute
// values.
func (t *Tuple) ResidentBytes() int64 {
	const header = 8 + 16 + 24
	return header + int64(len(t.Name)) + 8*int64(len(t.Attrs))
}

// ByteSize is the exact wire size of the tuple in the binary codec (see
// AppendWire): varint id, length-prefixed name, attr count, varint attrs.
// The MapReduce engine uses it for shuffle accounting, so it must track the
// real encoding — gob-era code guessed 8+len(Name)+8*len(Attrs) and omitted
// the name length prefix and varint widths.
func (t Tuple) ByteSize() int {
	n := wire.SizeVarint(t.ID) +
		wire.SizeUvarint(uint64(len(t.Name))) + len(t.Name) +
		wire.SizeUvarint(uint64(len(t.Attrs)))
	for _, v := range t.Attrs {
		n += wire.SizeVarint(v)
	}
	return n
}

// AppendWire appends the tuple's standalone binary encoding: zigzag-varint
// id, length-prefixed name, attr count, then each attr as a zigzag varint.
// Batched tuples use the denser TupleBatch layout instead.
func (t *Tuple) AppendWire(b []byte) []byte {
	b = wire.AppendVarint(b, t.ID)
	b = wire.AppendString(b, t.Name)
	b = wire.AppendUvarint(b, uint64(len(t.Attrs)))
	for _, v := range t.Attrs {
		b = wire.AppendVarint(b, v)
	}
	return b
}

// ReadTupleWire decodes one AppendWire-encoded tuple.
func ReadTupleWire(r *wire.Reader) (Tuple, error) {
	var t Tuple
	t.ID = r.Varint()
	t.Name = r.String()
	if n := r.Count(1); n > 0 {
		t.Attrs = make([]int64, n)
		for i := range t.Attrs {
			t.Attrs[i] = r.Varint()
		}
	}
	return t, r.Err()
}

// String renders the tuple as "#id(name)[a b c]", the name part only when
// there is one. The daemon renders every sampled tuple of every answer with
// it, so it appends into one buffer, on the stack for all but the widest.
func (t Tuple) String() string {
	var buf [128]byte
	b := append(buf[:0], '#')
	b = strconv.AppendInt(b, t.ID, 10)
	if t.Name != "" {
		b = append(b, '(')
		b = append(b, t.Name...)
		b = append(b, ')')
	}
	b = append(b, '[')
	for i, v := range t.Attrs {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, v, 10)
	}
	b = append(b, ']')
	return string(b)
}

// ValidFor reports an error if the tuple does not conform to the schema:
// wrong arity or a value outside its field's domain.
func (t *Tuple) ValidFor(s *Schema) error {
	if len(t.Attrs) != s.NumFields() {
		return fmt.Errorf("dataset: tuple #%d has %d attrs, schema has %d fields", t.ID, len(t.Attrs), s.NumFields())
	}
	for i, v := range t.Attrs {
		if f := s.Field(i); !f.Contains(v) {
			return fmt.Errorf("dataset: tuple #%d attr %s=%d outside domain [%d, %d]", t.ID, f.Name, v, f.Min, f.Max)
		}
	}
	return nil
}
