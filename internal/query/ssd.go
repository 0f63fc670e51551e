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

// Classifier lowers the stratum conditions to their first-match cell grid
// over the schema: Classify returns what MatchStratum returns over Compile'd
// predicates for every tuple within the schema's domains. Overlapping strata
// are not an error here; Validate rejects them.
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
// non-negative, conditions lower to a grid within the cell cap, and no cell
// of that grid lies in two strata — the paper's validity requirement
// σ_φk1(R) ∩ σ_φk2(R) = ∅ for all populations R over the schema's domains.
func (q *SSD) Validate(schema *dataset.Schema) error {
	_, err := q.ValidClassifier(schema)
	return err
}

// ValidClassifier validates the SSD as Validate does and returns the
// classifier it lowered to on the way.
func (q *SSD) ValidClassifier(schema *dataset.Schema) (*predicate.Classifier, error) {
	for i, s := range q.Strata {
		if s.Freq < 0 {
			return nil, fmt.Errorf("query %s stratum %d: negative frequency %d", q.Name, i, s.Freq)
		}
	}
	c, err := q.Classifier(schema)
	if err != nil {
		return nil, err
	}
	if i, j, ok := c.Overlap(); ok {
		return nil, fmt.Errorf("query %s: strata %d and %d overlap: %s vs %s",
			q.Name, i, j, q.Strata[i].Cond, q.Strata[j].Cond)
	}
	return c, nil
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
