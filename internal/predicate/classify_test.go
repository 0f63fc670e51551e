package predicate

import (
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

// TestClassifierFallsBackPastMaxBoxes: a formula whose DNF Boxes refuses is
// classified through its compiled predicate, between box-lowered neighbours.
func TestClassifierFallsBackPastMaxBoxes(t *testing.T) {
	schema := predSchema()
	// 9 two-way disjunctions conjoined expand to 512 boxes; conjoining two
	// of those asks for 512² > MaxBoxes.
	var half Expr = Literal(true)
	for i := int64(0); i < 9; i++ {
		half = And{half, Or{Compare{"a", Ge, 10 + i}, Compare{"b", Lt, 40 - i}}}
	}
	wide := And{half, half}
	if _, err := Boxes(wide, schema); err == nil {
		t.Fatal("test formula no longer overflows Boxes; make it wider")
	}
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
