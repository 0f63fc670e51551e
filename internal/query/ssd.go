package query

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/predicate"
)

// Stratum is one stratum constraint s_k = (φ_k, f_k): a propositional
// condition defining the stratum and the required sample frequency.
type Stratum struct {
	// Cond is the stratum's propositional formula φ_k.
	Cond predicate.Expr
	// Freq is the required sample frequency f_k ≥ 0.
	Freq int
}

// String renders the constraint as "(φ, f)".
func (s Stratum) String() string { return fmt.Sprintf("(%s, %d)", s.Cond, s.Freq) }

// SSD is a stratified-sample-design query: a named set of stratum constraints
// whose conditions must be pairwise disjoint.
type SSD struct {
	// Name identifies the survey, e.g. "Q1".
	Name string
	// Strata are the query's stratum constraints.
	Strata []Stratum
}

// NewSSD builds an SSD query.
func NewSSD(name string, strata ...Stratum) *SSD {
	return &SSD{Name: name, Strata: strata}
}

// TotalFreq returns Σ f_k, the size of a full answer.
func (q *SSD) TotalFreq() int {
	n := 0
	for _, s := range q.Strata {
		n += s.Freq
	}
	return n
}

// Compile resolves every stratum condition against the schema, returning one
// predicate per stratum.
func (q *SSD) Compile(schema *dataset.Schema) ([]predicate.Pred, error) {
	preds := make([]predicate.Pred, len(q.Strata))
	for i, s := range q.Strata {
		p, err := predicate.Compile(s.Cond, schema)
		if err != nil {
			return nil, fmt.Errorf("query %s stratum %d: %w", q.Name, i, err)
		}
		preds[i] = p
	}
	return preds, nil
}

// Classifier lowers the stratum conditions to one flat first-match
// classifier over the schema: Classify returns what MatchStratum returns over
// Compile'd predicates for every tuple within the schema's domains.
func (q *SSD) Classifier(schema *dataset.Schema) (*predicate.Classifier, error) {
	conds := make([]predicate.Expr, len(q.Strata))
	for i, s := range q.Strata {
		conds[i] = s.Cond
	}
	c, err := predicate.NewClassifier(conds, schema)
	if err != nil {
		return nil, fmt.Errorf("query %s: %w", q.Name, err)
	}
	return c, nil
}

// MatchStratum returns the index of the stratum whose condition the tuple
// satisfies, or -1. Disjointness guarantees at most one stratum matches;
// preds must come from Compile.
func MatchStratum(preds []predicate.Pred, t *dataset.Tuple) int {
	for i, p := range preds {
		if p(t) {
			return i
		}
	}
	return -1
}

// Validate checks the SSD is well formed over the schema: frequencies are
// non-negative, conditions compile, and every pair of stratum conditions is
// disjoint (the paper's validity requirement σ_φk1(R) ∩ σ_φk2(R) = ∅ for all
// populations R over the schema's domains).
func (q *SSD) Validate(schema *dataset.Schema) error {
	for i, s := range q.Strata {
		if s.Freq < 0 {
			return fmt.Errorf("query %s stratum %d: negative frequency %d", q.Name, i, s.Freq)
		}
		if _, err := predicate.Compile(s.Cond, schema); err != nil {
			return fmt.Errorf("query %s stratum %d: %w", q.Name, i, err)
		}
	}
	for i := 0; i < len(q.Strata); i++ {
		for j := i + 1; j < len(q.Strata); j++ {
			ok, err := predicate.Disjoint(q.Strata[i].Cond, q.Strata[j].Cond, schema)
			if err != nil {
				return fmt.Errorf("query %s: disjointness of strata %d,%d: %w", q.Name, i, j, err)
			}
			if !ok {
				return fmt.Errorf("query %s: strata %d and %d overlap: %s vs %s",
					q.Name, i, j, q.Strata[i].Cond, q.Strata[j].Cond)
			}
		}
	}
	return nil
}

// CoverageFormula returns the disjunction of all stratum conditions — the
// part of the population the query covers. Its negation is the propositional
// projection of a stratum selection that skips this query (Section 5.2.2).
func (q *SSD) CoverageFormula() predicate.Expr {
	conds := make([]predicate.Expr, len(q.Strata))
	for i, s := range q.Strata {
		conds[i] = s.Cond
	}
	return predicate.OrAll(conds...)
}
