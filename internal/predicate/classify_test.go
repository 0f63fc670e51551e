package predicate

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
)

// firstMatch is the classifier's specification: the first formula that Eval
// says the tuple satisfies.
func firstMatch(t *testing.T, conds []Expr, schema *dataset.Schema, tp *dataset.Tuple) int {
	t.Helper()
	for i, e := range conds {
		ok, err := Eval(e, schema, tp)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			return i
		}
	}
	return -1
}

// TestQuickClassifierAgreesWithEval: Boxes clips every interval to the
// schema's domain and the classifier drops tests that span a whole domain,
// yet for random formulas (And/Or/Not, all six operators, constants inside,
// on and beyond the domain bounds) it classifies every in-domain tuple —
// corners included — exactly as the formulas themselves do.
func TestQuickClassifierAgreesWithEval(t *testing.T) {
	schema := predSchema()
	corners := []dataset.Tuple{
		{Attrs: []int64{0, -50, 0}}, {Attrs: []int64{100, 50, 10}},
		{Attrs: []int64{0, 50, 10}}, {Attrs: []int64{100, -50, 0}},
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		conds := make([]Expr, 1+rng.Intn(4))
		for i := range conds {
			conds[i] = randomExpr(rng, 4)
		}
		cls, err := NewClassifier(conds, schema)
		if err != nil {
			t.Log(err)
			return false
		}
		tuples := append([]dataset.Tuple(nil), corners...)
		for i := 0; i < 40; i++ {
			tuples = append(tuples, randomTuple(rng))
		}
		for i := range tuples {
			if got, want := cls.Classify(&tuples[i]), firstMatch(t, conds, schema, &tuples[i]); got != want {
				t.Logf("conds %v tuple %v: classifier %d, formulas %d", conds, tuples[i].Attrs, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// pastMaxBoxes returns a formula over predSchema whose DNF Boxes refuses: 9
// two-way disjunctions conjoined expand to 512 boxes, and conjoining two of
// those asks for 512² > MaxBoxes.
func pastMaxBoxes(t *testing.T, schema *dataset.Schema) Expr {
	t.Helper()
	var half Expr = Literal(true)
	for i := int64(0); i < 9; i++ {
		half = And{half, Or{Compare{"a", Ge, 10 + i}, Compare{"b", Lt, 40 - i}}}
	}
	wide := And{half, half}
	if _, err := Boxes(wide, schema); err == nil {
		t.Fatal("test formula no longer overflows Boxes; make it wider")
	}
	return wide
}

// TestClassifierFallsBackPastMaxBoxes: a formula whose DNF Boxes refuses is
// classified through its compiled predicate, between box-lowered neighbours.
func TestClassifierFallsBackPastMaxBoxes(t *testing.T) {
	schema := predSchema()
	wide := pastMaxBoxes(t, schema)
	conds := []Expr{MustParse("c = 3"), wide, MustParse("c >= 0")}
	cls, err := NewClassifier(conds, schema)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	seen := map[int]int{}
	for i := 0; i < 2000; i++ {
		tp := randomTuple(rng)
		got, want := cls.Classify(&tp), firstMatch(t, conds, schema, &tp)
		if got != want {
			t.Fatalf("tuple %v: classifier %d, formulas %d", tp.Attrs, got, want)
		}
		seen[got]++
	}
	if seen[0] == 0 || seen[1] == 0 || seen[2] == 0 {
		t.Fatalf("classes hit %v: want every formula, the fallback included, to match some tuple", seen)
	}

	if _, err := NewClassifier([]Expr{MustParse("zzz < 3")}, schema); err == nil {
		t.Fatal("want error for unknown attribute")
	}
}

// columnsAgree fails the test unless ClassifyColumns over the tuples' column
// mirror — the columns Attrs names, nothing else — equals row-wise Classify.
func columnsAgree(t *testing.T, cls *Classifier, numFields int, tuples []dataset.Tuple) bool {
	t.Helper()
	mirror := dataset.ColumnsOf(tuples, numFields)
	cols := make(dataset.Columns, numFields)
	for _, j := range cls.Attrs() {
		cols[j] = mirror[j]
	}
	out := make([]int32, len(tuples))
	for i := range out {
		out[i] = 12345 // the kernel must not read what was there
	}
	cls.ClassifyColumns(cols, tuples, out)
	for i := range tuples {
		if want := cls.Classify(&tuples[i]); int(out[i]) != want {
			t.Errorf("tuple %v: ClassifyColumns %d, Classify %d", tuples[i].Attrs, out[i], want)
			return false
		}
	}
	return true
}

// TestClassifyColumnsAgreesWithClassify: both column kernels — the cell grid
// and the box kernel it falls back to — are row-wise Classify for every
// in-domain tuple: random formulas (1-test, 2-test and wider boxes,
// unsatisfiable and whole-domain strata, overlapping strata where the first
// match must win), domain corners, a pred-fallback stratum between
// box-lowered ones, a query with more strata than an int8 holds, fields too
// wide for an int32 column next to one that spans all of int32, the grid's
// cell cap from both sides, cuts on the domain edges and at the int32
// extremes, bounds shared across strata, empty boxes, and a stratum made of
// non-adjacent cells.
func TestClassifyColumnsAgreesWithClassify(t *testing.T) {
	schema := predSchema()
	corners := []dataset.Tuple{
		{Attrs: []int64{0, -50, 0}}, {Attrs: []int64{100, 50, 10}},
		{Attrs: []int64{0, 50, 10}}, {Attrs: []int64{100, -50, 0}},
	}
	sample := func(rng *rand.Rand, n int) []dataset.Tuple {
		tuples := append([]dataset.Tuple(nil), corners...)
		for i := 0; i < n; i++ {
			tuples = append(tuples, randomTuple(rng))
		}
		return tuples
	}
	t.Run("random", func(t *testing.T) {
		grids := 0
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			conds := make([]Expr, 1+rng.Intn(5))
			for i := range conds {
				conds[i] = randomExpr(rng, 4)
			}
			cls, err := NewClassifier(conds, schema)
			if err != nil {
				t.Log(err)
				return false
			}
			if !columnsAgree(t, cls, 3, sample(rng, 60)) {
				t.Logf("conds %v", conds)
				return false
			}
			if UsesGrid(cls) {
				grids++
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
			t.Fatal(err)
		}
		if grids < 200 {
			t.Errorf("%d of 400 random classifiers took the grid: the random formulas no longer exercise it", grids)
		}
	})
	t.Run("shapes", func(t *testing.T) {
		rng := rand.New(rand.NewSource(11))
		for _, srcs := range [][]string{
			{"a > 100", "b < -50", "c = 4"},                      // empty boxes first
			{"a >= 0", "c = 3"},                                  // whole-domain test shadows the rest
			{"c = 3", "true"},                                    // literal after a 1-test box
			{"false", "a < 50 and b < 0", "a < 50"},              // overlap: first match wins
			{"a < 50 and b < 0 and c < 5", "a != 7 and b != -7"}, // 3-test box, multi-box strata
			{"a >= 0 and b >= -50 and c <= 10"},                  // every test spans its domain
		} {
			conds := make([]Expr, len(srcs))
			for i, src := range srcs {
				conds[i] = MustParse(src)
			}
			if !columnsAgree(t, mustClassifier(t, conds, schema), 3, sample(rng, 300)) {
				t.Errorf("conds %v", srcs)
			}
		}
		if !columnsAgree(t, mustClassifier(t, []Expr{MustParse("a < 50")}, schema), 3, nil) {
			t.Error("empty split")
		}
	})
	t.Run("pred-fallback", func(t *testing.T) {
		conds := []Expr{MustParse("c = 3"), pastMaxBoxes(t, schema), MustParse("c >= 0 and a < 90")}
		cls := mustClassifier(t, conds, schema)
		columnsAgree(t, cls, 3, sample(rand.New(rand.NewSource(3)), 2000))
		if UsesGrid(cls) {
			t.Error("a classifier with a pred box took the grid")
		}
	})
	t.Run("200-strata", func(t *testing.T) {
		var conds []Expr
		for a := 0; a < 100; a++ {
			conds = append(conds,
				MustParse(fmt.Sprintf("a = %d and b < 0", a)), MustParse(fmt.Sprintf("a = %d and b >= 0", a)))
		}
		cls := mustClassifier(t, conds, schema)
		tuples := sample(rand.New(rand.NewSource(5)), 3000)
		columnsAgree(t, cls, 3, tuples)
		if last := cls.Classify(&dataset.Tuple{Attrs: []int64{99, 50, 0}}); last != 199 {
			t.Fatalf("class of the last stratum = %d, want 199", last)
		}
		if !UsesGrid(cls) {
			t.Error("101 × 2 cells: box kernel, want the grid")
		}
	})
	t.Run("fields-wider-than-int32", func(t *testing.T) {
		wide := dataset.MustSchema(
			dataset.Field{Name: "w", Min: math.MinInt64, Max: math.MaxInt64},
			dataset.Field{Name: "h", Min: 0, Max: math.MaxInt32 + 1}, // one value too many
			dataset.Field{Name: "n", Min: math.MinInt32, Max: math.MaxInt32},
		)
		conds := []Expr{
			MustParse("w >= -5 and n < 5"), MustParse("w < -7"), MustParse("h >= 4 and n >= 5"),
			MustParse("n >= 2147483640"), MustParse("n < -2147483640"), MustParse("n = 2"),
		}
		cls := mustClassifier(t, conds, wide)
		// Values 2^32 apart are one int32: a truncated column cannot tell
		// them apart, so w and h must be read from the rows.
		edge := []int64{math.MinInt64, math.MinInt64 + 1, -1 << 32, -6, -5, -1, 0, 3, 4, 7, 8, 1<<32 - 6, 1 << 32, math.MaxInt64 - 1, math.MaxInt64}
		nEdge := []int64{math.MinInt32, math.MinInt32 + 7, -1, 2, 4, 5, math.MaxInt32 - 7, math.MaxInt32}
		var tuples []dataset.Tuple
		for _, w := range edge {
			for _, h := range []int64{0, 3, 4, math.MaxInt32, math.MaxInt32 + 1} {
				for _, n := range nEdge {
					tuples = append(tuples, dataset.Tuple{Attrs: []int64{w, h, n}})
				}
			}
		}
		columnsAgree(t, cls, 3, tuples)
		if got := cls.Attrs(); len(got) != 1 || got[0] != 2 {
			t.Errorf("Attrs = %v, want [2]: boxes testing w or h must stay off the column kernel", got)
		}
		if UsesGrid(cls) {
			t.Error("a classifier with row-wise boxes took the grid")
		}
	})

	// The cell grid's edges, each checked against Classify and against the
	// kernel it must take.
	rng := rand.New(rand.NewSource(17))
	random := func(n int) []dataset.Tuple {
		var tuples []dataset.Tuple
		for i := 0; i < n; i++ {
			tuples = append(tuples, randomTuple(rng))
		}
		return tuples
	}
	// grid builds the classifier, insists it took the grid with the given
	// number of cells, and compares the kernels over the tuples.
	grid := func(t *testing.T, srcs []string, cells int, s *dataset.Schema, tuples []dataset.Tuple) *Classifier {
		t.Helper()
		cls := mustClassifier(t, parseAll(srcs...), s)
		if !UsesGrid(cls) {
			t.Fatalf("conds %v: box kernel, want the grid", srcs)
		}
		if got := len(cls.grid.table); got != cells {
			t.Errorf("conds %v: %d cells, want %d", srcs, got, cells)
		}
		if !columnsAgree(t, cls, s.NumFields(), tuples) {
			t.Errorf("conds %v", srcs)
		}
		return cls
	}
	classOf := func(t *testing.T, cls *Classifier, want int, attrs ...int64) {
		t.Helper()
		tp := []dataset.Tuple{{Attrs: attrs}}
		if !columnsAgree(t, cls, len(attrs), tp) || cls.Classify(&tp[0]) != want {
			t.Errorf("tuple %v: class %d, want %d", attrs, cls.Classify(&tp[0]), want)
		}
	}

	t.Run("cap-boundary", func(t *testing.T) {
		xy := dataset.MustSchema(
			dataset.Field{Name: "x", Min: 0, Max: 10000},
			dataset.Field{Name: "y", Min: 0, Max: 10000},
		)
		// "x < i" for 0 < i < nx and "y < j" for 0 < j < ny cut an nx × ny grid.
		for _, tc := range []struct {
			nx, ny int
			grid   bool
		}{
			{16, 256, true}, {4096, 1, true}, // exactly maxGridCells
			{17, 241, false}, {4097, 1, false}, // 4097 cells
		} {
			var srcs []string
			for i := 1; i < tc.nx; i++ {
				srcs = append(srcs, fmt.Sprintf("x < %d", i))
			}
			for j := 1; j < tc.ny; j++ {
				srcs = append(srcs, fmt.Sprintf("y < %d", j))
			}
			tuples := []dataset.Tuple{{Attrs: []int64{0, 0}}, {Attrs: []int64{10000, 10000}}}
			for i := 0; i < 300; i++ {
				tuples = append(tuples, dataset.Tuple{Attrs: []int64{rng.Int63n(int64(tc.nx) + 2), rng.Int63n(int64(tc.ny) + 2)}})
			}
			if tc.nx*tc.ny != maxGridCells && tc.nx*tc.ny != maxGridCells+1 {
				t.Fatalf("%d × %d is not at the cap", tc.nx, tc.ny)
			}
			if tc.grid {
				grid(t, srcs, maxGridCells, xy, tuples)
				continue
			}
			cls := mustClassifier(t, parseAll(srcs...), xy)
			if UsesGrid(cls) {
				t.Errorf("%d × %d cells: grid, want the box kernel", tc.nx, tc.ny)
			}
			columnsAgree(t, cls, 2, tuples)
		}
	})
	t.Run("domain-edges", func(t *testing.T) {
		var tuples []dataset.Tuple
		for _, a := range []int64{0, 1, 2, 99, 100} {
			for _, b := range []int64{-50, -49, -48, 48, 49, 50} {
				for _, c := range []int64{0, 1, 9, 10} {
					tuples = append(tuples, dataset.Tuple{Attrs: []int64{a, b, c}})
				}
			}
		}
		// Cuts at Min+1 (a 1, b -49, c 1) and at Max (a 100, b 50, c 10).
		grid(t, []string{"a >= 1 and b < -49", "a = 100", "b > 49 and c = 10", "c < 1", "a = 0 and c >= 10"}, 3*3*3, schema, tuples)
	})
	t.Run("int32-extremes", func(t *testing.T) {
		ext := dataset.MustSchema(
			dataset.Field{Name: "n", Min: math.MinInt32, Max: math.MaxInt32},
			dataset.Field{Name: "m", Min: math.MinInt32, Max: math.MaxInt32},
		)
		vals := []int64{math.MinInt32, math.MinInt32 + 1, math.MinInt32 + 2, -1, 0, 1, math.MaxInt32 - 2, math.MaxInt32 - 1, math.MaxInt32}
		var tuples []dataset.Tuple
		for _, n := range vals {
			for _, m := range vals {
				tuples = append(tuples, dataset.Tuple{Attrs: []int64{n, m}})
			}
		}
		// "n = 2147483647" ends at Max, where hi+1 would overflow int32: it
		// cuts at Max and nowhere above.
		cls := grid(t, []string{
			"n = 2147483647 and m < -2147483647", "n = -2147483648", "n >= 2147483646",
			"m <= 2147483646", "n < -2147483647 or m > 2147483646", "n != 0",
		}, 6*3, ext, tuples)
		classOf(t, cls, 0, math.MaxInt32, math.MinInt32)
		classOf(t, cls, 2, math.MaxInt32, math.MaxInt32)
		classOf(t, cls, 4, math.MinInt32+1, math.MaxInt32)
		classOf(t, cls, 3, 0, 0)
		classOf(t, cls, 4, 0, math.MaxInt32)
	})
	t.Run("shared-bounds", func(t *testing.T) {
		grid(t, []string{
			"a < 50 and b < 0", "a < 50 and b >= 0", "a >= 50 and b < 0",
			"a >= 50 and b >= 0 and c = 5", "a >= 50 and c <= 5",
		}, 2*2*3, schema, random(500))
	})
	t.Run("empty-boxes", func(t *testing.T) {
		cls := grid(t, []string{"a > 100", "b < -50 or c = 4", "a > 50 and a < 40", "false", "c = 4 and c != 4", "a < 30"},
			2*3, schema, random(500))
		for _, b := range cls.boxes {
			if b.class == 0 || b.class == 2 || b.class == 3 || b.class == 4 {
				t.Errorf("box %+v of an unsatisfiable stratum survived lowering", b)
			}
		}
	})
	t.Run("overlap-first-match", func(t *testing.T) {
		cls := grid(t, []string{"a < 50", "a < 70 and b < 0", "b < 10", "true"}, 3*3, schema, random(500))
		classOf(t, cls, 0, 40, -10, 0)
		classOf(t, cls, 1, 60, -10, 0)
		classOf(t, cls, 2, 80, 5, 0)
		classOf(t, cls, 3, 80, 20, 0)
	})
	t.Run("non-adjacent-cells", func(t *testing.T) {
		cls := grid(t, []string{"a < 10 or a > 90", "b >= 0"}, 3*2, schema, random(500))
		classOf(t, cls, 0, 5, -10, 0)
		classOf(t, cls, 0, 95, 10, 0)
		classOf(t, cls, 1, 50, 10, 0)
		classOf(t, cls, -1, 50, -10, 0)
	})
}

func parseAll(srcs ...string) []Expr {
	conds := make([]Expr, len(srcs))
	for i, src := range srcs {
		conds[i] = MustParse(src)
	}
	return conds
}

func mustClassifier(t *testing.T, conds []Expr, schema *dataset.Schema) *Classifier {
	t.Helper()
	cls, err := NewClassifier(conds, schema)
	if err != nil {
		t.Fatal(err)
	}
	return cls
}
