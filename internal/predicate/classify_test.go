package predicate

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
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

// TestQuickClassifierAgreesWithEval: the grid keeps only the cuts inside the
// schema's domains and folds an atom with none into a constant, yet for
// random formulas (And/Or/Not, all six operators, constants inside, on and
// beyond the domain bounds) it classifies every in-domain tuple — corners
// included — exactly as the formulas themselves do.
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

// deepAndOfOr returns a formula over predSchema whose DNF has 512² boxes,
// which the box lowering refused past its 65 536-box cap: 9 two-way
// disjunctions conjoined, conjoined with themselves. Its grid has 10 × 10
// cells (the cuts a 10..18 and b 32..40).
func deepAndOfOr() Expr {
	var half Expr = Literal(true)
	for i := int64(0); i < 9; i++ {
		half = And{half, Or{Compare{"a", Ge, 10 + i}, Compare{"b", Lt, 40 - i}}}
	}
	return And{half, half}
}

// TestClassifierDeepAndOfOr: a deep And-of-Or nest lowers to its small grid,
// between neighbours that cut c, and classifies like the formulas.
func TestClassifierDeepAndOfOr(t *testing.T) {
	schema := predSchema()
	conds := []Expr{MustParse("c = 3"), deepAndOfOr(), MustParse("c >= 0")}
	cls, err := NewClassifier(conds, schema)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(cls.table); got != 10*10*3 {
		t.Errorf("%d cells, want 10 × 10 × 3", got)
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
		t.Fatalf("classes hit %v: want every formula to match some tuple", seen)
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

// TestClassifyColumnsAgreesWithClassify: the column kernel is row-wise
// Classify for every in-domain tuple: random formulas (1-test, 2-test and
// wider boxes, unsatisfiable and whole-domain strata, overlapping strata where
// the first match must win), domain corners, a deep And-of-Or stratum between
// plain ones, a query with more strata than an int8 holds, fields too wide for
// an int32 column next to one that spans all of int32 (row-wise), the cell cap
// from both sides, cuts on the domain edges and at the int32 extremes, bounds
// shared across strata, empty boxes, and a stratum made of non-adjacent
// cells.
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
			if !UsesGrid(cls) {
				t.Logf("conds %v: row-wise over an int32 schema", conds)
				return false
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
			t.Fatal(err)
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
	t.Run("deep-and-of-or", func(t *testing.T) {
		conds := []Expr{MustParse("c = 3"), deepAndOfOr(), MustParse("c >= 0 and a < 90")}
		cls := mustClassifier(t, conds, schema)
		columnsAgree(t, cls, 3, sample(rand.New(rand.NewSource(3)), 2000))
		if !UsesGrid(cls) {
			t.Error("an And-of-Or nest over int32 fields went row-wise")
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
			t.Error("101 × 2 cells: row-wise, want the grid")
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
		if got := cls.Attrs(); len(got) != 0 {
			t.Errorf("Attrs = %v, want none: a classifier testing w or h must stay off the columns", got)
		}
		if UsesGrid(cls) {
			t.Error("a classifier testing fields wider than int32 read columns")
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
			t.Fatalf("conds %v: row-wise, want the grid", srcs)
		}
		if got := len(cls.table); got != cells {
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
		// "x < i" for 0 < i < nx and "y < j" for 0 < j < ny cut an nx × ny
		// grid: exactly maxCells takes the grid, one row more is refused.
		strata := func(nx, ny int) []string {
			var srcs []string
			for i := 1; i < nx; i++ {
				srcs = append(srcs, fmt.Sprintf("x < %d", i))
			}
			for j := 1; j < ny; j++ {
				srcs = append(srcs, fmt.Sprintf("y < %d", j))
			}
			return srcs
		}
		if 256*256 != maxCells {
			t.Fatalf("256 × 256 is not the cap %d", maxCells)
		}
		tuples := []dataset.Tuple{{Attrs: []int64{0, 0}}, {Attrs: []int64{10000, 10000}}}
		for i := 0; i < 300; i++ {
			tuples = append(tuples, dataset.Tuple{Attrs: []int64{rng.Int63n(258), rng.Int63n(258)}})
		}
		grid(t, strata(256, 256), maxCells, xy, tuples)
		_, err := NewClassifier(parseAll(strata(257, 256)...), xy)
		if err == nil || !strings.Contains(err.Error(), "65792 cells") {
			t.Errorf("257 × 256 cells: error %v, want the count past the cap", err)
		}

		// Boxes with bounds no other box shares, three attributes each.
		abc := dataset.MustSchema(
			dataset.Field{Name: "a", Min: 0, Max: 1000},
			dataset.Field{Name: "b", Min: 0, Max: 1000},
			dataset.Field{Name: "c", Min: 0, Max: 1000},
		)
		cls := mustClassifier(t, pastGridCap(), abc)
		if got := len(cls.table); got != 17*17*17 {
			t.Errorf("%d cells, want 17³", got)
		}
		tuples = tuples[:0]
		for i := 0; i < 2000; i++ {
			tuples = append(tuples, dataset.Tuple{Attrs: []int64{rng.Int63n(1001), rng.Int63n(1001), rng.Int63n(1001)}})
		}
		columnsAgree(t, cls, 3, tuples)
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
		// The grid comes from the atoms, not from satisfiable boxes: the empty
		// "a > 50 and a < 40" still cuts a at 40 and 51, next to a < 30's 30.
		cls := grid(t, []string{"a > 100", "b < -50 or c = 4", "a > 50 and a < 40", "false", "c = 4 and c != 4", "a < 30"},
			4*3, schema, random(500))
		for cell, class := range cls.table {
			if class == 0 || class == 2 || class == 3 || class == 4 {
				t.Errorf("cell %d has the class of unsatisfiable stratum %d", cell, class)
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
