// Package cps implements the paper's Constraint Program Selector (Algorithm
// 2, CPS) and its scalable variant MR-CPS (Section 5.2.5): optimal-cost
// answering of multi-survey stratified-sampling (MSSD) queries.
//
// The pipeline is:
//
//  1. answer the MSSD representatively but non-optimally with MR-MQE;
//  2. derive the relevant stratum selections [[Q]]* and the frequencies
//     F(A_i, σ) from stratum-selection tries (SSTs) built over the initial
//     answers;
//  3. count the stratum-selection limits L(σ) with a MapReduce job
//     (Figure 4) — the fused scan of internal/stratified, whose per-query
//     classes of a tuple are its σ(t);
//  4. formulate the linear program of Figure 3 over decision variables
//     X_τ(σ) and solve it (per-σ decomposed by default — every constraint
//     of Figure 3 touches a single σ, so the decomposition is exact; a
//     joint formulation and an exact integer-programming mode exist for
//     the ablation and optimality analyses);
//  5. draw the combined answer for the derived query Q′ in one pass of the
//     same scan, sampling by stratum selection, and deal X_τ(σ) tuples to
//     the surveys of each τ;
//  6. top up rounding deficits with a residual pass of it, one derived
//     query per survey.
package cps

import (
	"fmt"
	"strings"

	"repro/internal/dataset"
	"repro/internal/predicate"
	"repro/internal/query"
	"repro/internal/stratified"
)

// None marks a query without a stratum constraint in a selection.
const None = -1

// Selection is a stratum selection σ over n SSD queries: entry i is the
// stratum index query Q_i contributes, or None. It is stored as a trie path.
type Selection []int

// SelectionOf computes σ(t), the maximal stratum selection the tuple
// satisfies: for each query, the index of the (unique, by disjointness)
// stratum whose condition t satisfies, or None.
func SelectionOf(t *dataset.Tuple, compiled [][]predicate.Pred) Selection {
	sel := make(Selection, len(compiled))
	for qi, preds := range compiled {
		sel[qi] = query.MatchStratum(preds, t)
	}
	return sel
}

// Key encodes the selection as a compact string usable as a map key — the
// packing the MapReduce jobs look σ(t) up by. Each level is two big-endian
// bytes of (index+1); None encodes as 0.
func (s Selection) Key() string { return stratified.SelectionKey(s) }

// Empty reports whether the selection has no stratum constraints (the tuple
// matched no query); such tuples are irrelevant to the MSSD.
func (s Selection) Empty() bool {
	for _, v := range s {
		if v != None {
			return false
		}
	}
	return true
}

// Tau returns I(σ): the index set of queries contributing a stratum.
func (s Selection) Tau() query.Tau {
	var t query.Tau
	for i, v := range s {
		if v != None {
			t = t.With(i)
		}
	}
	return t
}

// Clone copies the selection.
func (s Selection) Clone() Selection { return append(Selection(nil), s...) }

// String renders the selection like "{s1,2, s3,1}" (1-based, paper style).
func (s Selection) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for i, v := range s {
		if v == None {
			continue
		}
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "s%d,%d", i+1, v+1)
	}
	b.WriteByte('}')
	return b.String()
}

// Projection returns π_i(σ): the condition of query i's stratum in σ, or —
// when query i contributes none — the negation of the disjunction of all of
// query i's stratum conditions (Section 5.2.2).
func Projection(queries []*query.SSD, s Selection, i int) predicate.Expr {
	if s[i] != None {
		return queries[i].Strata[s[i]].Cond
	}
	cover := queries[i].CoverageFormula()
	if cover == predicate.Literal(false) {
		return predicate.True
	}
	return predicate.Not{X: cover}
}

// Formula returns φ(σ) = π_1(σ) ∧ ... ∧ π_n(σ), the stratum condition of the
// derived query Q′ for this selection. MR-CPS samples by selection key
// instead of evaluating this formula, but it is exposed for CPS-as-described
// and for tests.
func Formula(queries []*query.SSD, s Selection) predicate.Expr {
	parts := make([]predicate.Expr, len(queries))
	for i := range queries {
		parts[i] = Projection(queries, s, i)
	}
	return predicate.AndAll(parts...)
}
