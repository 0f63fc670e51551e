package predicate

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/dataset"
)

// FuzzParse: whatever the input, Parse must never panic, and any formula it
// accepts must round-trip through String unchanged.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"a < 1",
		"a >= 3 and b <= 7",
		"not (x = 1 or y != 2)",
		"gender = 1 ∧ ¬(income > 100000 ∨ income < 50000)",
		"true or false",
		"(((a<1)))",
		"a < -9223372036854775808",
		"_x1 <> 42",
		"a == 5 and b < 6 or not c >= 7",
		"))((",
		"and and",
		"a <",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		e, err := Parse(input)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		again, err := Parse(e.String())
		if err != nil {
			t.Fatalf("String() of accepted input %q does not re-parse: %q: %v", input, e.String(), err)
		}
		if !Equal(e, again) {
			t.Fatalf("round trip changed %q: %q vs %q", input, e, again)
		}
	})
}

// FuzzClassifyColumns: for any list of formulas over predSchema (strata
// separated by ';') and any seed for the in-domain tuples, the column kernel
// equals row-wise Classify.
func FuzzClassifyColumns(f *testing.F) {
	seeds := []string{
		"a >= 48 ; a < 48",
		"a < 50 and b < 4 ; a < 50 and b >= 4 ; a >= 50 and b < 4 ; a >= 50 and b >= 4",
		"a < 10 or a > 90 ; b >= 0",
		"a >= 1 and b < -49 ; a = 100 ; c < 1",
		"a > 100 ; b < -50 or c = 4 ; false ; a < 30",
		"a < 50 ; a < 70 and b < 0 ; true",
		"not (a != 7 and b != -7) ; c >= 3 and c <= 7",
	}
	for i, s := range seeds {
		f.Add(s, int64(i))
	}
	schema := predSchema()
	f.Fuzz(func(t *testing.T, text string, seed int64) {
		conds, ok := parseStrata(text)
		if !ok {
			return
		}
		cls, err := NewClassifier(conds, schema)
		if err != nil {
			return // unknown attribute
		}
		rng := rand.New(rand.NewSource(seed))
		tuples := []dataset.Tuple{{Attrs: []int64{0, -50, 0}}, {Attrs: []int64{100, 50, 10}}}
		for i := 0; i < 64; i++ {
			tuples = append(tuples, randomTuple(rng))
		}
		if !columnsAgree(t, cls, 3, tuples) {
			t.Fatalf("strata %q", text)
		}
	})
}

// parseStrata parses ';'-separated formulas, refusing long or malformed text.
func parseStrata(text string) ([]Expr, bool) {
	if len(text) > 256 {
		return nil, false // long formulas only slow the lowering down
	}
	var conds []Expr
	for _, src := range strings.Split(text, ";") {
		e, err := Parse(src)
		if err != nil {
			return nil, false
		}
		conds = append(conds, e)
	}
	return conds, true
}

// FuzzCanonicalKey: for any two lists of formulas over predSchema, their
// classifiers' keys are equal iff both class every point alike (sameClasses).
func FuzzCanonicalKey(f *testing.F) {
	for _, pair := range [][2]string{
		{"a < 10 and b < 20 or a < 20 and b < 10", "a < 10 and b < 20 or a >= 10 and a < 20 and b < 10"},
		{"a < 10 or a >= 10 and a < 20", "a < 20"},
		{"a >= 48 ; a < 48", "not a < 48 ; a <= 47"},
		{"a >= 48 ; a < 48", "a < 48 ; a >= 48"},
		{"a > 100", "b < -50"},
		{"a != 7", "a < 7 or a > 7 and c >= 0"},
		{"a < 50 ; b < 0", "a < 50 ; b < 0 and a >= 50"},
	} {
		f.Add(pair[0], pair[1])
	}
	schema := predSchema()
	f.Fuzz(func(t *testing.T, x, y string) {
		cx, ok := parseStrata(x)
		if !ok {
			return
		}
		cy, ok := parseStrata(y)
		if !ok {
			return
		}
		kx, ky, common := lowered(cx, schema), lowered(cy, schema), lowered(slices.Concat(cx, cy), schema)
		if kx == nil || ky == nil || common == nil {
			return // unknown attribute, or past the cap
		}
		same := sameClasses(t, common, cx, cy, schema)
		if equal := kx.Key() == ky.Key(); equal != same {
			t.Fatalf("%q vs %q: keys equal %v (%q, %q), classes equal %v", x, y, equal, kx.Key(), ky.Key(), same)
		}
	})
}

func lowered(conds []Expr, schema *dataset.Schema) *Classifier {
	c, err := NewClassifier(conds, schema)
	if err != nil {
		return nil
	}
	return c
}

// sameClasses reports whether the two formula lists give the same first-match
// class (by Eval) at the lowest point of every cell of their common grid —
// common is the classifier of both lists, on each of whose cells both are
// constant.
func sameClasses(t *testing.T, common *Classifier, x, y []Expr, schema *dataset.Schema) bool {
	t.Helper()
	lo, hi, at := common.cellRange()
	tp := dataset.Tuple{Attrs: make([]int64, schema.NumFields())}
	same := true
	common.eachCell(lo, hi, at, func(_ int32, at []int32) bool {
		for j := range tp.Attrs {
			tp.Attrs[j] = schema.Field(j).Min
		}
		for d, dim := range common.dims {
			if i := at[d]; i > 0 {
				tp.Attrs[dim.attr] = dim.below[i-1] + 1
			}
		}
		same = firstMatch(t, x, schema, &tp) == firstMatch(t, y, schema, &tp)
		return same
	})
	return same
}
