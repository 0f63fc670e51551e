package predicate_test

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/predicate"
	"repro/internal/query"
)

// SSD validation decides disjointness on the strata's cell grid. These tests
// check its verdict on two strata against brute force: Eval at every in-domain
// point of predSchema (a ∈ [0,100], b ∈ [-50,50], c ∈ [0,10]).

// overlapByEval reports whether some in-domain point satisfies both formulas.
func overlapByEval(t *testing.T, p, q predicate.Expr, schema *dataset.Schema) bool {
	t.Helper()
	tp := dataset.Tuple{Attrs: make([]int64, 3)}
	for a := int64(0); a <= 100; a++ {
		for b := int64(-50); b <= 50; b++ {
			for c := int64(0); c <= 10; c++ {
				tp.Attrs[0], tp.Attrs[1], tp.Attrs[2] = a, b, c
				pv, err := predicate.Eval(p, schema, &tp)
				if err != nil {
					t.Fatal(err)
				}
				if !pv {
					continue
				}
				if qv, _ := predicate.Eval(q, schema, &tp); qv {
					return true
				}
			}
		}
	}
	return false
}

// validates reports whether query.SSD.Validate accepts p and q as the strata
// of one query; any error but an overlap fails the test.
func validates(t *testing.T, p, q predicate.Expr, schema *dataset.Schema) bool {
	t.Helper()
	err := query.NewSSD("Q", query.Stratum{Cond: p, Freq: 1}, query.Stratum{Cond: q, Freq: 1}).Validate(schema)
	if err != nil && !strings.Contains(err.Error(), "strata 0 and 1 overlap") {
		t.Fatalf("Validate(%v ; %v): %v", p, q, err)
	}
	return err == nil
}

func TestDisjointBasics(t *testing.T) {
	schema := predicate.PredSchema()
	cases := []struct {
		p, q string
		want bool
	}{
		{"a < 50", "a >= 50", true},
		{"a < 50", "a > 40", false},
		{"a = 3", "a != 3", true},
		{"a < 10 and b > 0", "a < 10 and b <= 0", true},
		{"a < 10 and b > 0", "a < 5", false},
		{"c = 1 or c = 2", "c = 3 or c = 4", true},
		{"c = 1 or c = 2", "c = 2 or c = 3", false},
		{"not (a < 50)", "a < 50", true},
		{"true", "a = 1", false},
		{"false", "a = 1", true},
		{"a > 100", "a >= 0", true}, // the first stratum is empty over the domain
	}
	for _, c := range cases {
		p, q := predicate.MustParse(c.p), predicate.MustParse(c.q)
		if got := validates(t, p, q, schema); got != c.want {
			t.Errorf("Validate(%q ; %q) accepts = %v, want %v", c.p, c.q, got, c.want)
		}
		if overlapByEval(t, p, q, schema) == c.want {
			t.Errorf("brute force disagrees with the table on %q ; %q", c.p, c.q)
		}
	}
}

// TestQuickDisjointConsistent: Validate accepts two random formulas as strata
// iff no in-domain point satisfies both.
func TestQuickDisjointConsistent(t *testing.T) {
	schema := predicate.PredSchema()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := predicate.RandomExpr(rng, 3)
		q := predicate.RandomExpr(rng, 3)
		if validates(t, p, q, schema) == overlapByEval(t, p, q, schema) {
			t.Logf("%v ; %v: Validate and brute force disagree", p, q)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
