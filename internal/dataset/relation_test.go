package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// splitSizes returns the length of each split.
func splitSizes(splits []Split) []int {
	sizes := make([]int, len(splits))
	for i, s := range splits {
		sizes[i] = len(s)
	}
	return sizes
}

func mkTuple(id int64, attrs ...int64) Tuple {
	return Tuple{ID: id, Attrs: attrs}
}

func TestRelationAddValidates(t *testing.T) {
	r := NewRelation(testSchema(t))
	if err := r.Add(mkTuple(1, 30, 50000, 1)); err != nil {
		t.Fatalf("valid add: %v", err)
	}
	if err := r.Add(mkTuple(1, 40, 60000, 0)); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("want duplicate-id error, got %v", err)
	}
	if err := r.Add(mkTuple(2, 500, 0, 0)); err == nil || !strings.Contains(err.Error(), "outside domain") {
		t.Fatalf("want domain error, got %v", err)
	}
	if err := r.Add(mkTuple(3, 30, 50000)); err == nil || !strings.Contains(err.Error(), "attrs") {
		t.Fatalf("want arity error, got %v", err)
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1", r.Len())
	}
}

// TestRelationAddRejectsDuplicates covers both ways Add keeps IDs unique:
// while they ascend it compares with the last one alone, so a repeat of the
// last is the duplicate it can meet; after an ID out of order it consults the
// set built from the tuples so far, so a repeat of any earlier ID is refused,
// and ascending IDs after it still go in.
func TestRelationAddRejectsDuplicates(t *testing.T) {
	r := NewRelation(testSchema(t))
	for _, id := range []int64{-3, 0, 4} {
		r.MustAdd(mkTuple(id, 1, 1, 1))
	}
	if r.ids != nil {
		t.Fatal("ascending IDs built the set")
	}
	if err := r.Add(mkTuple(4, 1, 1, 1)); err == nil || err.Error() != "dataset: duplicate tuple id 4" {
		t.Fatalf("repeat of the last ID: got %v", err)
	}
	r.MustAdd(mkTuple(2, 1, 1, 1)) // out of order, new
	if r.ids == nil {
		t.Fatal("an ID out of order did not build the set")
	}
	for _, id := range []int64{-3, 0, 4, 2} {
		if err := r.Add(mkTuple(id, 1, 1, 1)); err == nil || err.Error() != fmt.Sprintf("dataset: duplicate tuple id %d", id) {
			t.Fatalf("repeat of %d after the fallback: got %v", id, err)
		}
	}
	r.MustAdd(mkTuple(9, 1, 1, 1))
	r.MustAdd(mkTuple(1, 1, 1, 1))
	var ids []int64
	for _, tp := range r.Tuples() {
		ids = append(ids, tp.ID)
	}
	if want := []int64{-3, 0, 4, 2, 9, 1}; !reflect.DeepEqual(ids, want) {
		t.Fatalf("relation holds %v, want %v in insertion order", ids, want)
	}
}

// TestRelationGrow: after Grow(n), n Adds fill the array Grow made.
func TestRelationGrow(t *testing.T) {
	r := NewRelation(testSchema(t))
	r.Grow(100)
	first := unsafe.SliceData(r.tuples[:1])
	for i := int64(0); i < 100; i++ {
		r.MustAdd(mkTuple(i, 1, 1, 1))
	}
	if unsafe.SliceData(r.tuples) != first {
		t.Fatal("Adds within the grown capacity moved the tuple array")
	}
}

func TestRelationSelectAndCount(t *testing.T) {
	r := NewRelation(testSchema(t))
	for i := int64(0); i < 10; i++ {
		r.MustAdd(mkTuple(i, i*10, 1000*i, i%2))
	}
	even := func(t *Tuple) bool { return t.Attrs[2] == 0 }
	sel := r.Select(even)
	if len(sel) != 5 {
		t.Fatalf("Select returned %d, want 5", len(sel))
	}
	if n := r.Count(even); n != 5 {
		t.Fatalf("Count = %d, want 5", n)
	}
}

func TestTupleClone(t *testing.T) {
	orig := mkTuple(7, 1, 2, 3)
	cl := orig.Clone()
	cl.Attrs[0] = 99
	if orig.Attrs[0] != 1 {
		t.Fatal("Clone must deep-copy attrs")
	}
}

func TestTupleByteSizeAndString(t *testing.T) {
	tp := Tuple{ID: 1, Name: "ab", Attrs: []int64{1, 2}}
	// varint id (1) + name prefix+bytes (1+2) + attr count (1) + attrs (1+1)
	if got := tp.ByteSize(); got != 7 {
		t.Fatalf("ByteSize = %d, want 7", got)
	}
	if s := tp.String(); !strings.Contains(s, "#1(ab)[1 2]") {
		t.Fatalf("String = %q", s)
	}
}

// fmtTupleString is Tuple.String as fmt rendered it before the strconv
// version: the reference the daemon's response bytes must not move from.
func fmtTupleString(t Tuple) string {
	var b strings.Builder
	fmt.Fprintf(&b, "#%d", t.ID)
	if t.Name != "" {
		fmt.Fprintf(&b, "(%s)", t.Name)
	}
	b.WriteByte('[')
	for i, v := range t.Attrs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", v)
	}
	b.WriteByte(']')
	return b.String()
}

// TestTupleStringMatchesFmt: byte-identical to the fmt rendering on the edge
// tuples and on random ones — negative and extreme ids and values, empty and
// non-empty names, no attrs, and renderings longer than the stack buffer.
func TestTupleStringMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tuples := []Tuple{
		{},
		{ID: -1},
		{ID: math.MinInt64, Name: "x", Attrs: []int64{math.MinInt64, math.MaxInt64, 0}},
		{ID: 7, Name: "", Attrs: []int64{}},
		{ID: 7, Name: "a (b) [c] #d é\n", Attrs: []int64{-5}},
		{ID: 1, Name: strings.Repeat("n", 300), Attrs: make([]int64, 40)},
	}
	for i := 0; i < 2000; i++ {
		tp := Tuple{ID: rng.Int63() >> uint(rng.Intn(64))}
		if rng.Intn(2) == 0 {
			tp.ID = -tp.ID
		}
		if rng.Intn(2) == 0 {
			tp.Name = strings.Repeat("né", rng.Intn(6))
		}
		for a := rng.Intn(30); a > 0; a-- {
			v := rng.Int63() >> uint(rng.Intn(64))
			if rng.Intn(2) == 0 {
				v = -v
			}
			tp.Attrs = append(tp.Attrs, v)
		}
		tuples = append(tuples, tp)
	}
	for _, tp := range tuples {
		if got, want := tp.String(), fmtTupleString(tp); got != want {
			t.Fatalf("String() = %q, fmt renders %q", got, want)
		}
	}
}

func partitionTestRelation(t *testing.T, n int) *Relation {
	t.Helper()
	r := NewRelation(testSchema(t))
	for i := int64(0); i < int64(n); i++ {
		r.MustAdd(mkTuple(i, i%120, i, i%2))
	}
	return r
}

func checkUnion(t *testing.T, r *Relation, splits []Split) {
	t.Helper()
	seen := make(map[int64]int)
	total := 0
	for _, s := range splits {
		for _, tp := range s {
			seen[tp.ID]++
			total++
		}
	}
	if total != r.Len() {
		t.Fatalf("splits hold %d tuples, relation has %d", total, r.Len())
	}
	for id, c := range seen {
		if c != 1 {
			t.Fatalf("tuple %d appears %d times", id, c)
		}
	}
}

func TestPartitionStrategiesPreserveUnion(t *testing.T) {
	r := partitionTestRelation(t, 101)
	rng := rand.New(rand.NewSource(1))
	for _, strat := range []Partitioning{RoundRobin, Contiguous, Skewed, ShuffledContiguous} {
		splits, err := Partition(r, 7, strat, rng)
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if len(splits) != 7 {
			t.Fatalf("%v: %d splits, want 7", strat, len(splits))
		}
		checkUnion(t, r, splits)
	}
}

func TestPartitionRoundRobinBalance(t *testing.T) {
	r := partitionTestRelation(t, 100)
	splits, err := Partition(r, 4, RoundRobin, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, sz := range splitSizes(splits) {
		if sz != 25 {
			t.Fatalf("split %d has %d tuples, want 25", i, sz)
		}
	}
}

func TestPartitionSkewedIsSkewed(t *testing.T) {
	r := partitionTestRelation(t, 1000)
	splits, err := Partition(r, 4, Skewed, nil)
	if err != nil {
		t.Fatal(err)
	}
	sizes := splitSizes(splits)
	if !(sizes[0] < sizes[1] && sizes[1] < sizes[2] && sizes[2] < sizes[3]) {
		t.Fatalf("sizes %v are not increasing", sizes)
	}
}

// TestPartitionSharesItsSource: the contiguous layouts cut windows onto one
// array — the relation's own, or for ShuffledContiguous one shuffled copy —
// each with its capacity ending at its last row, while RoundRobin gathers
// fresh splits. Appending to any split leaves its neighbour and the relation
// as they were.
func TestPartitionSharesItsSource(t *testing.T) {
	r := partitionTestRelation(t, 103)
	before := make([]Tuple, r.Len())
	for i, tp := range r.Tuples() {
		before[i] = tp.Clone()
	}
	// Address ranges of one split's rows and of the relation's.
	addr := func(s []Tuple) (lo, hi uintptr) {
		lo = uintptr(unsafe.Pointer(unsafe.SliceData(s)))
		return lo, lo + uintptr(len(s))*unsafe.Sizeof(Tuple{})
	}
	relLo, relHi := addr(r.Tuples())
	for _, tc := range []struct {
		strategy Partitioning
		windows  bool // windows onto one array
		onto     bool // that array is the relation's
	}{
		{RoundRobin, false, false},
		{Contiguous, true, true},
		{Skewed, true, true},
		{ShuffledContiguous, true, false},
	} {
		t.Run(tc.strategy.String(), func(t *testing.T) {
			splits, err := Partition(r, 4, tc.strategy, rand.New(rand.NewSource(5)))
			if err != nil {
				t.Fatal(err)
			}
			_, prevHi := addr(splits[0])
			for i, s := range splits {
				lo, hi := addr(s)
				inRelation := lo >= relLo && hi <= relHi
				if inRelation != tc.onto {
					t.Errorf("split %d lies in the relation's array: %v, want %v", i, inRelation, tc.onto)
				}
				if !tc.windows {
					continue
				}
				if cap(s) != len(s) {
					t.Errorf("split %d: cap %d, len %d; a window's capacity ends at its last row", i, cap(s), len(s))
				}
				if i == 0 && tc.onto && lo != relLo {
					t.Errorf("split 0 does not start at the relation's first row")
				}
				if i > 0 && lo != prevHi {
					t.Errorf("split %d does not start where split %d ends", i, i-1)
				}
				prevHi = hi
			}
			next := splits[2][0]
			for i := range splits {
				splits[i] = append(splits[i], mkTuple(-1, 0, 0, 0))
			}
			if !reflect.DeepEqual(splits[2][0], next) {
				t.Errorf("appending to split 1 overwrote split 2's first row %v with %v", next, splits[2][0])
			}
			if !reflect.DeepEqual(r.Tuples(), before) {
				t.Error("appending to the splits changed the relation")
			}
		})
	}
}

func TestPartitionErrors(t *testing.T) {
	r := partitionTestRelation(t, 10)
	if _, err := Partition(r, 0, RoundRobin, nil); err == nil {
		t.Fatal("want error for 0 splits")
	}
	if _, err := Partition(r, 2, ShuffledContiguous, nil); err == nil {
		t.Fatal("want error for nil rng with ShuffledContiguous")
	}
	if _, err := Partition(r, 2, Partitioning(99), nil); err == nil {
		t.Fatal("want error for unknown strategy")
	}
}

func TestPartitioningString(t *testing.T) {
	if RoundRobin.String() != "round-robin" || Partitioning(99).String() == "" {
		t.Fatal("Partitioning.String misbehaves")
	}
}

func TestParsePartitioning(t *testing.T) {
	for _, p := range []Partitioning{RoundRobin, Contiguous, Skewed, ShuffledContiguous} {
		got, err := ParsePartitioning(p.String())
		if err != nil || got != p {
			t.Fatalf("round trip of %v: %v, %v", p, got, err)
		}
	}
	if _, err := ParsePartitioning("nope"); err == nil {
		t.Fatal("want error for unknown name")
	}
}
