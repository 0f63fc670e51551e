package predicate

import (
	"math"

	"repro/internal/dataset"
)

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
	attrs []int     // distinct attributes ClassifyColumns reads from columns, ascending
}

// flatBox is one DNF disjunct of one formula.
type flatBox struct {
	class int
	tests []attrTest // all must hold; none means the whole domain
	// pred, when set, stands in for the tests: the formula's closure tree,
	// kept for a formula whose DNF Boxes refuses (past MaxBoxes).
	pred Pred
	// rowwise keeps the box off the column kernel: it has a pred, or a test
	// on a field too wide for an int32 column.
	rowwise bool
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
			c.boxes = append(c.boxes, flatBox{class: class, pred: pred, rowwise: true})
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
					if f.Min < math.MinInt32 || f.Max > math.MaxInt32 {
						fb.rowwise = true
					}
				}
			}
			c.boxes = append(c.boxes, fb)
		}
	}
	seen := make([]bool, schema.NumFields())
	for i := range c.boxes {
		if c.boxes[i].rowwise {
			continue
		}
		for _, x := range c.boxes[i].tests {
			seen[x.attr] = true
		}
	}
	for idx, ok := range seen {
		if ok {
			c.attrs = append(c.attrs, idx)
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

// Attrs returns the attribute indexes ClassifyColumns reads from its cols
// argument, ascending; every other column may be nil. The slice is shared.
func (c *Classifier) Attrs() []int { return c.attrs }

// ClassifyColumns writes Classify(&rows[i]) into out[i] for every row, reading
// attribute values from cols, the column-major mirror of rows (cols[j][i] ==
// rows[i].Attrs[j] for every j in Attrs). len(out) must equal len(rows).
//
// A stratum scan's comparisons are coin flips when strata cut near the
// median, and a mispredicted branch costs more than the test, so the kernel
// has no data-dependent branch. Boxes are evaluated last to first, each one
// overwriting the class of the rows it contains, which leaves every row with
// the class of its first matching box, as Classify returns. A test lo <= v <=
// hi fails iff (v-lo)|(hi-v) is negative; the tests of a box are OR-ed and
// the sign, spread over the word, selects between the old class and the
// box's by mask arithmetic. Columns hold int32 and the arithmetic is int64, so
// the subtractions cannot overflow; a box testing a field whose domain does
// not fit int32 cannot be read from columns at all, and is evaluated — as a
// box kept as a pred is — per row from rows with plain comparisons.
//
// Precondition: every row's attributes lie in the schema's domains. There it
// agrees with Classify. Outside it need not: a cell is the value truncated to
// int32, so a value 2^32 away from an in-range one classifies as that one,
// where Classify matches nothing.
func (c *Classifier) ClassifyColumns(cols dataset.Columns, rows []dataset.Tuple, out []int32) {
	out = out[:len(rows)]
	for i := range out {
		out[i] = -1
	}
	for bi := len(c.boxes) - 1; bi >= 0; bi-- {
		b := &c.boxes[bi]
		class := int32(b.class)
		switch {
		case b.rowwise:
			for i := range rows {
				if b.holds(&rows[i]) {
					out[i] = class
				}
			}
		case len(b.tests) == 0:
			for i := range out {
				out[i] = class
			}
		case len(b.tests) == 1:
			x := b.tests[0]
			select1(cols[x.attr], x.lo, x.hi, class, out)
		case len(b.tests) == 2:
			x, y := b.tests[0], b.tests[1]
			select2(cols[x.attr], x.lo, x.hi, cols[y.attr], y.lo, y.hi, class, out)
		default:
			selectN(cols, b.tests, class, out)
		}
	}
}

// The select kernels overwrite out[i] with class where row i passes every
// test and leave it otherwise: keep is -1 where some test fails and 0 where
// none does. Each is its own function, never inlined, so its loop keeps all
// its operands in registers whatever else ClassifyColumns holds live.

//go:noinline
func select1(col []int32, lo, hi int64, class int32, out []int32) {
	col = col[:len(out)]
	for i := range out {
		v := int64(col[i])
		keep := int32(((v - lo) | (hi - v)) >> 63)
		out[i] = class ^ ((out[i] ^ class) & keep)
	}
}

//go:noinline
func select2(colX []int32, loX, hiX int64, colY []int32, loY, hiY int64, class int32, out []int32) {
	colX, colY = colX[:len(out)], colY[:len(out)]
	for i := range out {
		v, w := int64(colX[i]), int64(colY[i])
		keep := int32(((v - loX) | (hiX - v) | (w - loY) | (hiY - w)) >> 63)
		out[i] = class ^ ((out[i] ^ class) & keep)
	}
}

//go:noinline
func selectN(cols dataset.Columns, tests []attrTest, class int32, out []int32) {
	for i := range out {
		var fail int64
		for _, x := range tests {
			v := int64(cols[x.attr][i])
			fail |= (v - x.lo) | (x.hi - v)
		}
		keep := int32(fail >> 63)
		out[i] = class ^ ((out[i] ^ class) & keep)
	}
}

// holds reports whether the tuple lies in the box.
func (b *flatBox) holds(t *dataset.Tuple) bool {
	if b.pred != nil {
		return b.pred(t)
	}
	for _, x := range b.tests {
		if v := t.Attrs[x.attr]; v < x.lo || v > x.hi {
			return false
		}
	}
	return true
}
