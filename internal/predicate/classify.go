package predicate

import "repro/internal/dataset"

// Classifier assigns a tuple to the first of a list of formulas it
// satisfies — the stratum scan of the sampling mappers. Each formula is
// lowered once, via Boxes, to its DNF over attribute intervals, so
// classification is a flat scan of (attribute, lo, hi) tests over t.Attrs
// instead of a closure-tree walk per (tuple, formula).
//
// It agrees with Compile'd predicates on every tuple whose attributes lie in
// the schema's domains (the invariant Relation.Add enforces). Boxes clips
// intervals to the domains, so a test that spans its attribute's whole
// domain is dropped, and out-of-domain values are the only inputs on which
// the two could disagree.
type Classifier struct {
	boxes []flatBox // grouped by class, classes in formula order
}

// flatBox is one DNF disjunct of one formula.
type flatBox struct {
	class int
	tests []attrTest // all must hold; none means the whole domain
	// pred, when set, stands in for the tests: the formula's closure tree,
	// kept for a formula whose DNF Boxes refuses (past MaxBoxes).
	pred Pred
}

type attrTest struct {
	attr   int
	lo, hi int64
}

// NewClassifier lowers the formulas over the schema. It fails only where
// Compile fails (unknown attributes or expression types).
func NewClassifier(conds []Expr, schema *dataset.Schema) (*Classifier, error) {
	c := &Classifier{}
	for class, cond := range conds {
		boxes, err := Boxes(cond, schema)
		if err != nil {
			pred, cerr := Compile(cond, schema)
			if cerr != nil {
				return nil, cerr
			}
			c.boxes = append(c.boxes, flatBox{class: class, pred: pred})
			continue
		}
		for _, b := range boxes {
			fb := flatBox{class: class}
			// Schema order, so equal boxes lower identically whatever the
			// map iteration order.
			for idx := 0; idx < schema.NumFields(); idx++ {
				f := schema.Field(idx)
				if iv, ok := b[f.Name]; ok && (iv.Lo > f.Min || iv.Hi < f.Max) {
					fb.tests = append(fb.tests, attrTest{attr: idx, lo: iv.Lo, hi: iv.Hi})
				}
			}
			c.boxes = append(c.boxes, fb)
		}
	}
	return c, nil
}

// Classify returns the index of the first formula the tuple satisfies, or
// -1. It panics, as a compiled predicate would, if the tuple has fewer
// attributes than a formula references.
func (c *Classifier) Classify(t *dataset.Tuple) int {
	attrs := t.Attrs
next:
	for i := range c.boxes {
		b := &c.boxes[i]
		if b.pred != nil {
			if b.pred(t) {
				return b.class
			}
			continue
		}
		for _, x := range b.tests {
			if v := attrs[x.attr]; v < x.lo || v > x.hi {
				continue next
			}
		}
		return b.class
	}
	return -1
}
