package serve

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/query"
)

// canonOf parses the text query and canonicalizes it over the author schema.
func canonOf(t *testing.T, spec string) string {
	t.Helper()
	q, err := query.ParseSSD("Q", spec)
	if err != nil {
		t.Fatalf("parsing %q: %v", spec, err)
	}
	cls, err := q.ValidClassifier(gen.AuthorSchema())
	if err != nil {
		t.Fatalf("validating %q: %v", spec, err)
	}
	return canonicalSSD(q, cls)
}

func TestCanonicalEquivalentForms(t *testing.T) {
	// Each group lists textually different but semantically identical
	// queries over the author schema (nop ∈ [1,699], ayp ∈ [0,40]); every
	// member must share one canonical form.
	groups := [][]string{
		// Negation normalization.
		{"nop >= 100 : 5", "not (nop < 100) : 5", "not nop < 100 : 5"},
		// Conjunct order and redundant full-domain bounds.
		{
			"nop >= 100 and ayp < 10 : 7",
			"ayp < 10 and nop >= 100 : 7",
			"ayp < 10 and nop >= 100 and nop >= 1 : 7",
		},
		// Subsumed disjunct.
		{"nop >= 50 : 3", "nop >= 50 or nop >= 100 : 3", "nop >= 100 or nop >= 50 : 3"},
		// Adjacent intervals merge; tautology collapses to the full domain.
		{"nop >= 1 : 2", "nop <= 50 or nop > 50 : 2", "nop < 10 or nop >= 10 : 2"},
		// Multi-stratum query, variant conditions per stratum.
		{
			"nop >= 100 : 5 ; nop < 100 : 10",
			"not (nop < 100) : 5 ; nop <= 99 : 10",
		},
		// An L-shaped stratum cut into two boxes either way.
		{
			"(nop < 10 and ayp < 20) or (nop < 20 and ayp < 10) : 4",
			"(nop < 10 and ayp < 20) or (nop >= 10 and nop < 20 and ayp < 10) : 4",
			"(nop < 20 and ayp < 10) or (nop < 10 and ayp >= 10 and ayp < 20) : 4",
		},
		// A gap in the middle, and a stratum of non-adjacent ranges.
		{"nop < 10 or nop > 20 : 1 ; ayp = 5 and nop >= 10 and nop <= 20 : 2", "not (nop >= 10 and nop <= 20) : 1 ; nop != 9 and ayp = 5 and not (nop < 10 or nop > 20) : 2"},
	}
	for gi, g := range groups {
		want := canonOf(t, g[0])
		for _, spec := range g[1:] {
			if got := canonOf(t, spec); got != want {
				t.Errorf("group %d: canonical(%q) = %q, want %q (from %q)", gi, spec, got, want, g[0])
			}
		}
	}
}

func TestCanonicalDistinguishes(t *testing.T) {
	// Pairs that must NOT share a canonical form: different selections,
	// different frequencies, or different stratum order.
	pairs := [][2]string{
		{"nop >= 100 : 5", "nop >= 101 : 5"},
		{"nop >= 100 : 5", "nop >= 100 : 6"},
		{"nop >= 100 : 5 ; nop < 100 : 10", "nop < 100 : 10 ; nop >= 100 : 5"},
		{"nop >= 100 : 5", "ayp >= 10 : 5"},
	}
	for _, p := range pairs {
		a, b := canonOf(t, p[0]), canonOf(t, p[1])
		if a == b {
			t.Errorf("canonical(%q) == canonical(%q) == %q; want distinct", p[0], p[1], a)
		}
	}
}

func TestCanonicalIgnoresName(t *testing.T) {
	schema := gen.AuthorSchema()
	q1, _ := query.ParseSSD("Alpha", "nop >= 100 : 5")
	q2, _ := query.ParseSSD("Beta", "nop >= 100 : 5")
	cls, err := q1.ValidClassifier(schema)
	if err != nil {
		t.Fatal(err)
	}
	if c1, c2 := canonicalSSD(q1, cls), canonicalSSD(q2, cls); c1 != c2 {
		t.Errorf("canonical form depends on query name: %q vs %q", c1, c2)
	}
}

func TestCanonicalUnsatisfiableStratum(t *testing.T) {
	// nop > 699 and ayp > 40 are empty over the domains nop ∈ [1,699] and
	// ayp ∈ [0,40]: both strata match nobody, so they share a key, and one
	// that matches someone does not.
	empty := canonOf(t, "nop > 699 : 5")
	if other := canonOf(t, "ayp > 40 : 5"); other != empty {
		t.Errorf("unsatisfiable strata canonicalized apart: %q vs %q", empty, other)
	}
	if some := canonOf(t, "nop > 698 : 5"); some == empty {
		t.Errorf("a satisfiable stratum shares the unsatisfiable key %q", empty)
	}
}
