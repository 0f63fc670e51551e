package dataset

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// TestBlockEditsKeepColumns drives a seeded stream of Append, Set and
// SwapRemove over resident blocks — the last row and a one-row block
// included — and after every edit compares the block's mirror and size
// column with a fresh ResidentBlock of its rows.
func TestBlockEditsKeepColumns(t *testing.T) {
	const fields = 3
	rng := rand.New(rand.NewSource(37))
	next := int64(0)
	tuple := func() Tuple {
		next++
		attrs := make([]int64, fields)
		for j := range attrs {
			attrs[j] = rng.Int63n(1<<20) - 1<<19
		}
		return Tuple{ID: next, Name: fmt.Sprint("n", rng.Intn(1000)), Attrs: attrs}
	}
	check := func(b Block, edit string) {
		t.Helper()
		want := ResidentBlock(b.Rows, fields)
		if !reflect.DeepEqual(b.Cols, want.Cols) || !reflect.DeepEqual(b.Sizes, want.Sizes) {
			t.Fatalf("after %s: mirror %v sizes %v, rows give %v %v", edit, b.Cols, b.Sizes, want.Cols, want.Sizes)
		}
	}

	one := ResidentBlock(Split{tuple()}, fields)
	one.Set(0, tuple())
	check(one, "Set of a one-row block")
	one.SwapRemove(0)
	check(one, "SwapRemove of a one-row block")
	if one.Len() != 0 {
		t.Fatalf("a one-row block holds %d rows after its removal", one.Len())
	}
	one.Append(tuple())
	check(one, "Append to an emptied block")

	b := ResidentBlock(Split{tuple(), tuple(), tuple()}, fields)
	check(b, "ResidentBlock")
	for step := 0; step < 2000; step++ {
		switch op := rng.Intn(3); {
		case op == 0 || b.Len() == 0:
			b.Append(tuple())
			check(b, "Append")
		case op == 1:
			i := rng.Intn(b.Len())
			b.Set(i, tuple())
			check(b, fmt.Sprintf("Set(%d) of %d", i, b.Len()))
		default:
			i := rng.Intn(b.Len())
			if step%5 == 0 {
				i = b.Len() - 1 // the last row moves nothing
			}
			n := b.Len()
			b.SwapRemove(i)
			check(b, fmt.Sprintf("SwapRemove(%d) of %d", i, n))
		}
	}

	cols := ResidentBlock(Split{{Attrs: []int64{1, 10}}, {Attrs: []int64{0, 20}}}, 2).Cols
	if got := cols.ResidentBytes(); got != 2*2*4 {
		t.Errorf("Columns.ResidentBytes = %d, want 16", got)
	}
	if got, want := (Split{{Name: "ann", Attrs: []int64{1, 2}}}).ResidentBytes(), int64(48+3+16); got != want {
		t.Errorf("Split.ResidentBytes = %d, want %d", got, want)
	}
	if n := ResidentBlock(nil, 0).Cols.Len(); n != 0 {
		t.Errorf("Len of a fieldless mirror = %d", n)
	}
}
