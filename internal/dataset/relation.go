package dataset

import (
	"fmt"
	"slices"
)

// Relation is a set of individuals over a schema — the population R of the
// paper. Tuples are identified by their ID; a relation never stores two
// tuples with the same ID. While IDs arrive in ascending order (every
// generator in this module, and a CSV written in ID order) Add proves that
// by comparing with the last ID alone and the relation holds nothing but its
// tuples; the first ID out of that order builds a hash set of the IDs so far,
// which every later Add consults.
type Relation struct {
	schema *Schema
	tuples []Tuple
	// ids holds every tuple's ID once an Add has arrived out of ascending
	// order; nil while the IDs ascend.
	ids map[int64]struct{}
}

// NewRelation creates an empty relation over the schema.
func NewRelation(schema *Schema) *Relation {
	return &Relation{schema: schema}
}

// Grow makes room for n more tuples, so a builder that knows the final size
// allocates the tuple array once, at that size.
func (r *Relation) Grow(n int) { r.tuples = slices.Grow(r.tuples, n) }

// Schema returns the relation's schema.
func (r *Relation) Schema() *Schema { return r.schema }

// Len returns the number of individuals.
func (r *Relation) Len() int { return len(r.tuples) }

// Tuples returns the underlying tuple slice. Callers must not mutate it.
func (r *Relation) Tuples() []Tuple { return r.tuples }

// Tuple returns the i-th tuple in insertion order.
func (r *Relation) Tuple(i int) Tuple { return r.tuples[i] }

// Add validates the tuple against the schema and appends it. Duplicate IDs
// and domain violations are rejected.
func (r *Relation) Add(t Tuple) error {
	if err := t.ValidFor(r.schema); err != nil {
		return err
	}
	if n := len(r.tuples); r.ids != nil || n > 0 && t.ID <= r.tuples[n-1].ID {
		if r.ids == nil {
			r.ids = make(map[int64]struct{}, n+1)
			for i := range r.tuples {
				r.ids[r.tuples[i].ID] = struct{}{}
			}
		}
		if _, dup := r.ids[t.ID]; dup {
			return fmt.Errorf("dataset: duplicate tuple id %d", t.ID)
		}
		r.ids[t.ID] = struct{}{}
	}
	r.tuples = append(r.tuples, t)
	return nil
}

// MustAdd is like Add but panics on error; for tests and generators that
// construct tuples known to be valid.
func (r *Relation) MustAdd(t Tuple) {
	if err := r.Add(t); err != nil {
		panic(err)
	}
}

// Select returns the tuples satisfying pred, in insertion order. It is the
// selection operator σ_φ(R) with a compiled predicate.
func (r *Relation) Select(pred func(*Tuple) bool) []Tuple {
	var out []Tuple
	for i := range r.tuples {
		if pred(&r.tuples[i]) {
			out = append(out, r.tuples[i])
		}
	}
	return out
}

// Count returns |σ_pred(R)| without materialising the selection.
func (r *Relation) Count(pred func(*Tuple) bool) int {
	n := 0
	for i := range r.tuples {
		if pred(&r.tuples[i]) {
			n++
		}
	}
	return n
}
