package predicate

import (
	"math/rand"
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
// — the cell grid or the box kernel, whichever the lowering picks — equals
// row-wise Classify.
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
		if len(text) > 256 {
			return // long formulas only slow the DNF down
		}
		var conds []Expr
		for _, src := range strings.Split(text, ";") {
			e, err := Parse(src)
			if err != nil {
				return
			}
			conds = append(conds, e)
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
