package predicate

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// validStrata returns k random strata that are pairwise disjoint by
// construction: stratum i is φ_i ∧ ¬(φ_0 ∨ … ∨ φ_{i−1}).
func validStrata(rng *rand.Rand, k int) []Expr {
	phis := make([]Expr, k)
	strata := make([]Expr, k)
	for i := range phis {
		phis[i] = randomExpr(rng, 3)
		strata[i] = AndAll(phis[i], Not{OrAll(phis[:i]...)})
	}
	return strata
}

// rewrite returns an equivalent form of every stratum: split on a random atom
// c into (s ∧ c) ∨ (¬¬s ∧ ¬c).
func rewrite(rng *rand.Rand, strata []Expr) []Expr {
	out := make([]Expr, len(strata))
	for i, s := range strata {
		c := randomExpr(rng, 0)
		out[i] = Or{And{s, c}, And{Not{Not{s}}, Not{c}}}
	}
	return out
}

// TestQuickKeyIffSameClasses: over random valid SSDs, two stratum lists have
// equal keys iff they give the same class at every representative point of
// their common grid. Half the pairs are a list and a rewrite of it, half two
// independent lists, and both verdicts must turn up.
func TestQuickKeyIffSameClasses(t *testing.T) {
	schema := predSchema()
	var same, differ int
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := validStrata(rng, 1+rng.Intn(4))
		y := validStrata(rng, len(x))
		if rng.Intn(2) == 0 {
			y = rewrite(rng, x)
		}
		cx, cy, common := lowered(x, schema), lowered(y, schema), lowered(slices.Concat(x, y), schema)
		if cx == nil || cy == nil || common == nil {
			t.Logf("%v vs %v: not lowered", x, y)
			return false
		}
		alike := sameClasses(t, common, x, y, schema)
		if alike {
			same++
		} else {
			differ++
		}
		if equal := cx.Key() == cy.Key(); equal != alike {
			t.Logf("%v vs %v: keys equal %v (%q, %q), classes equal %v", x, y, equal, cx.Key(), cy.Key(), alike)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	if same < 100 || differ < 50 {
		t.Errorf("%d pairs classed alike, %d not: the property was not exercised both ways", same, differ)
	}
}
