package query

import (
	"repro/internal/dataset"
	"repro/internal/predicate"
)

// BatchClassifier assigns whole splits or columnar batches of tuples to
// strata through the query's flat predicate.Classifier: no closure tree per
// tuple, no allocation per row, and directly applicable to the rows of a
// dataset.TupleBatch. Semantics match MatchStratum over Compile'd predicates
// for every tuple whose attributes lie in the schema's domains (see
// predicate.Classifier).
type BatchClassifier struct {
	cls *predicate.Classifier
}

// NewBatchClassifier lowers every stratum condition of the query over the
// schema. It fails only on conditions that do not compile.
func NewBatchClassifier(q *SSD, schema *dataset.Schema) (*BatchClassifier, error) {
	cls, err := q.Classifier(schema)
	if err != nil {
		return nil, err
	}
	return &BatchClassifier{cls: cls}, nil
}

// ClassifyTuples writes each tuple's stratum index (or -1) into out, growing
// it as needed, and returns it. It panics, as a compiled predicate would, if
// a tuple has fewer attributes than a condition references.
func (c *BatchClassifier) ClassifyTuples(ts []dataset.Tuple, out []int) []int {
	out = growClass(out, len(ts))
	for i := range ts {
		out[i] = c.cls.Classify(&ts[i])
	}
	return out
}

// Classify writes each batch row's stratum index (or -1) into out, growing it
// as needed, and returns it. Rows are classified in place over the columnar
// attribute block — no per-row Tuple is materialized. It panics, like
// ClassifyTuples, if the batch has fewer columns than a condition references.
func (c *BatchClassifier) Classify(b *dataset.TupleBatch, out []int) []int {
	n := b.Len()
	out = growClass(out, n)
	var row dataset.Tuple
	for i := 0; i < n; i++ {
		row.Attrs = b.Row(i)
		out[i] = c.cls.Classify(&row)
	}
	return out
}

func growClass(out []int, n int) []int {
	if cap(out) < n {
		return make([]int, n)
	}
	return out[:n]
}
