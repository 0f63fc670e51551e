package dataset

import (
	"reflect"
	"testing"
)

// TestColumnsMirrorSplitEdits: each mutator leaves the mirror equal to
// ColumnsOf the split edited the same way.
func TestColumnsMirrorSplitEdits(t *testing.T) {
	split := Split{
		{ID: 1, Name: "ann", Attrs: []int64{1, 10}},
		{ID: 2, Attrs: []int64{0, 20}},
		{ID: 3, Attrs: []int64{1, 30}},
	}
	cols := ColumnsOf(split, 2)
	if want := (Columns{{1, 0, 1}, {10, 20, 30}}); !reflect.DeepEqual(cols, want) || cols.Len() != 3 {
		t.Fatalf("ColumnsOf = %v (len %d), want %v", cols, cols.Len(), want)
	}

	split = append(split, Tuple{ID: 4, Attrs: []int64{0, 40}})
	cols.Append(split[3].Attrs)
	split[1].Attrs = []int64{1, 25}
	cols.Set(1, split[1].Attrs)
	split[0] = split[len(split)-1] // swap-remove row 0
	split = split[:len(split)-1]
	cols.SwapRemove(0)
	split = split[:len(split)-1] // swap-remove the last row
	cols.SwapRemove(len(split))
	if want := ColumnsOf(split, 2); !reflect.DeepEqual(cols, want) {
		t.Fatalf("after edits: mirror %v, rows %v", cols, want)
	}

	if got := cols.ResidentBytes(); got != 2*2*4 {
		t.Errorf("Columns.ResidentBytes = %d, want 16", got)
	}
	if got, want := (Split{{Name: "ann", Attrs: []int64{1, 2}}}).ResidentBytes(), int64(48+3+16); got != want {
		t.Errorf("Split.ResidentBytes = %d, want %d", got, want)
	}
	if n := ColumnsOf(nil, 0).Len(); n != 0 {
		t.Errorf("Len of a fieldless mirror = %d", n)
	}
}
