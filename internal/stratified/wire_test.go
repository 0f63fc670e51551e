package stratified

import (
	"bytes"
	"testing"

	"repro/internal/dataset"
	"repro/internal/wire"
)

// FuzzReadTupleSlice: a tuple slice is what every split and every shuffled
// sample decodes, straight off a socket. Hostile bytes may be rejected, never
// panic, on the columnar (uniform arity) and the ragged arm alike; what
// decodes re-encodes to a stable form.
func FuzzReadTupleSlice(f *testing.F) {
	uniform := []dataset.Tuple{{ID: 1, Name: "a", Attrs: []int64{0, -7}}, {ID: 1 << 40, Attrs: []int64{1, 1000}}}
	ragged := append([]dataset.Tuple{{ID: 2, Attrs: []int64{5}}}, uniform...)
	for _, ts := range [][]dataset.Tuple{uniform, ragged, nil} {
		f.Add(appendTupleSlice(nil, ts))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if ts, err := readTupleSlice(wire.NewReader(data)); err == nil {
			enc := appendTupleSlice(nil, ts)
			back, err := readTupleSlice(wire.NewReader(enc))
			if err != nil || !bytes.Equal(enc, appendTupleSlice(nil, back)) {
				t.Fatalf("re-encode of a valid decode is unstable: %v", err)
			}
		}
	})
}
