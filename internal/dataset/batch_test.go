package dataset

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/wire"
)

func sampleTuples() []Tuple {
	return []Tuple{
		{ID: 0, Name: "a", Attrs: []int64{1, 500}},
		{ID: 1, Attrs: []int64{0, -3}},
		{ID: 5, Name: "carol", Attrs: []int64{1, 999}},
		{ID: 1000000, Name: "x", Attrs: []int64{0, 0}},
	}
}

func TestBatchRoundTrip(t *testing.T) {
	ts := sampleTuples()
	b, ok := BatchOfTuples(ts)
	if !ok {
		t.Fatal("uniform tuples reported ragged")
	}
	buf := b.AppendWire(nil)
	got, err := ReadTupleBatchWire(wire.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	back := got.Tuples()
	for i := range ts {
		if ts[i].ID != back[i].ID || ts[i].Name != back[i].Name ||
			!reflect.DeepEqual(ts[i].Attrs, back[i].Attrs) {
			t.Errorf("tuple %d: got %v, want %v", i, back[i], ts[i])
		}
	}
}

func TestBatchEmptyAndRagged(t *testing.T) {
	b, ok := BatchOfTuples(nil)
	if !ok || b.Len() != 0 {
		t.Error("empty slice should batch fine")
	}
	buf := b.AppendWire(nil)
	got, err := ReadTupleBatchWire(wire.NewReader(buf))
	if err != nil || got.Len() != 0 {
		t.Errorf("empty batch round trip: %v len=%d", err, got.Len())
	}
	if _, ok := BatchOfTuples([]Tuple{{Attrs: []int64{1}}, {Attrs: []int64{1, 2}}}); ok {
		t.Error("ragged tuples should not batch")
	}
}

func TestBatchRowIsView(t *testing.T) {
	b, _ := BatchOfTuples(sampleTuples())
	row := b.Row(1)
	row[0] = 42
	if b.Attrs[1*b.Stride] != 42 {
		t.Error("Row returned a copy, want a view")
	}
}

func TestBatchCorruptRejected(t *testing.T) {
	b, _ := BatchOfTuples(sampleTuples())
	buf := b.AppendWire(nil)
	for cut := 1; cut < len(buf); cut += 3 {
		if _, err := ReadTupleBatchWire(wire.NewReader(buf[:cut])); err == nil {
			t.Errorf("truncation at %d not rejected", cut)
		}
	}
	// A hostile stride on a tiny payload must error, not allocate.
	evil := wire.AppendUvarint(nil, 2)
	evil = wire.AppendUvarint(evil, 1<<40)
	if _, err := ReadTupleBatchWire(wire.NewReader(evil)); !errors.Is(err, wire.ErrCorrupt) {
		t.Errorf("hostile stride: %v, want ErrCorrupt", err)
	}
}

// TestByteSizeMatchesEncoding is the shuffle-accounting honesty check:
// Tuple.ByteSize must equal the length of the encoding it describes.
func TestByteSizeMatchesEncoding(t *testing.T) {
	for _, tu := range append(sampleTuples(),
		Tuple{ID: -9e15, Name: "негатив", Attrs: []int64{1 << 40, -1 << 40, 0}},
		Tuple{},
	) {
		enc := wire.AppendVarint(nil, tu.ID)
		enc = wire.AppendString(enc, tu.Name)
		enc = wire.AppendUvarint(enc, uint64(len(tu.Attrs)))
		for _, v := range tu.Attrs {
			enc = wire.AppendVarint(enc, v)
		}
		if tu.ByteSize() != len(enc) {
			t.Errorf("ByteSize(%v) = %d, encoded length %d", tu, tu.ByteSize(), len(enc))
		}
	}
}
