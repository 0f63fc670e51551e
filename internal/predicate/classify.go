package predicate

import (
	"math"
	"slices"

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
	grid  cellGrid  // a nil table: ClassifyColumns runs the box kernel
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
	c.grid = newCellGrid(c.boxes, c.attrs, schema)
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
// median, and a mispredicted branch costs more than the test, so neither
// kernel has a data-dependent branch. Columns hold int32 and the arithmetic
// is int64, so no subtraction below can overflow.
//
// The grid kernel (cellGrid) finds a row's cell with one comparison per
// distinct (attribute, bound) and reads its class from a table. The box
// kernel, for a classifier with no grid, evaluates boxes last to first, each
// one overwriting the class of the rows it contains, which leaves every row
// with the class of its first matching box, as Classify returns: a test
// lo <= v <= hi fails iff (v-lo)|(hi-v) is negative; the tests of a box are
// OR-ed and the sign, spread over the word, selects between the old class
// and the box's by mask arithmetic. A box testing a field whose domain does
// not fit int32 cannot be read from columns at all, and is evaluated — as a
// box kept as a pred is — per row from rows with plain comparisons.
//
// Precondition: every row's attributes lie in the schema's domains. There it
// agrees with Classify. Outside it need not: a column entry is the value
// truncated to int32, so a value 2^32 away from an in-range one classifies
// as that one, where Classify matches nothing.
func (c *Classifier) ClassifyColumns(cols dataset.Columns, rows []dataset.Tuple, out []int32) {
	out = out[:len(rows)]
	if c.grid.table != nil {
		c.grid.classify(cols, out)
		return
	}
	for i := range out {
		out[i] = -1
	}
	for bi := len(c.boxes) - 1; bi >= 0; bi-- {
		b := &c.boxes[bi]
		class := int32(b.class)
		if b.rowwise {
			for i := range rows {
				if b.holds(&rows[i]) {
					out[i] = class
				}
			}
			continue
		}
		selectN(cols, b.tests, class, out)
	}
}

// selectN overwrites out[i] with class where row i passes every test and
// leaves it otherwise: keep is -1 where some test fails and 0 where none
// does. It is its own function, never inlined, so its loop keeps its
// operands in registers whatever else ClassifyColumns holds live.
//
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

// maxGridCells caps a classifier's cell grid: past it the table would cost
// more to build, and to keep cache-resident, than the boxes it replaces.
// Every query of the paper's groups fits (Large is 4⁴ = 256 cells).
const maxGridCells = 4096

// cellGrid is a classifier lowered to the cells its own bounds cut the
// domain into. Every bound of every box is a cut on its attribute, so a box
// contains a cell whole or not at all, and the first box containing a cell
// gives the class of every tuple in it. A row's cell is mixed-radix: the sum,
// over tested attributes, of stride × the number of the attribute's cuts at
// or below the value.
type cellGrid struct {
	dims  []gridDim // one per Classifier.attrs entry, in that order
	table []int32   // class of each cell, -1 for none; nil: no grid
}

// gridDim is one tested attribute of a cellGrid.
type gridDim struct {
	attr   int
	stride int32
	// below holds cut-1 for each distinct cut, ascending: v lies at or
	// above the cut iff below - v is negative.
	below []int64
}

// newCellGrid lowers the boxes to a cell grid over attrs. It returns no grid
// (a nil table) when some box must be evaluated per row or the grid would
// have more than maxGridCells cells.
func newCellGrid(boxes []flatBox, attrs []int, schema *dataset.Schema) cellGrid {
	n := 0
	for i := range boxes {
		if boxes[i].rowwise {
			return cellGrid{}
		}
		n += 2 * len(boxes[i].tests)
	}
	// A test [lo, hi] cuts its attribute at lo and at hi+1 where they lie
	// inside (Min, Max] — below stores lo-1 and hi. Every test cuts (tests
	// spanning the whole domain were dropped), so every dim has a cut.
	below := make([]int64, 0, n)
	g := cellGrid{dims: make([]gridDim, len(attrs))}
	for d, attr := range attrs {
		f := schema.Field(attr)
		start := len(below)
		for i := range boxes {
			for _, x := range boxes[i].tests {
				if x.attr != attr {
					continue
				}
				if x.lo > f.Min {
					below = append(below, x.lo-1)
				}
				if x.hi < f.Max {
					below = append(below, x.hi)
				}
			}
		}
		slices.Sort(below[start:])
		below = below[:start+len(slices.Compact(below[start:]))]
		g.dims[d] = gridDim{attr: attr, below: below[start:len(below):len(below)]}
	}
	cells := 1
	for d := len(g.dims) - 1; d >= 0; d-- {
		g.dims[d].stride = int32(cells)
		if cells *= len(g.dims[d].below) + 1; cells > maxGridCells {
			return cellGrid{}
		}
	}

	g.table = make([]int32, cells)
	for i := range g.table {
		g.table[i] = -1
	}
	// Paint the boxes last to first over their cell sub-ranges, so each cell
	// ends with its first box's class. A box spans cells [lo[d], hi[d]] on
	// dim d; at walks them.
	nd := len(g.dims)
	scratch := make([]int, 3*nd)
	lo, hi, at := scratch[:nd], scratch[nd:2*nd], scratch[2*nd:]
	for bi := len(boxes) - 1; bi >= 0; bi-- {
		b := &boxes[bi]
		t := 0
		for d, dim := range g.dims {
			lo[d], hi[d] = 0, len(dim.below)
			if t < len(b.tests) && b.tests[t].attr == dim.attr {
				lo[d], hi[d] = dim.cellOf(b.tests[t].lo), dim.cellOf(b.tests[t].hi)
				t++
			}
		}
		copy(at, lo)
		for {
			off := 0
			for d, dim := range g.dims {
				off += at[d] * int(dim.stride)
			}
			g.table[off] = int32(b.class)
			d := nd - 1
			for ; d >= 0; d-- {
				if at[d]++; at[d] <= hi[d] {
					break
				}
				at[d] = lo[d]
			}
			if d < 0 {
				break
			}
		}
	}
	return g
}

// cellOf is the cell of value v on the dim: how many cuts lie at or below it.
func (dim *gridDim) cellOf(v int64) int {
	k, _ := slices.BinarySearch(dim.below, v)
	return k
}

// classify writes the class of every row's cell into out, one pass per cut:
// a pass adds the cut's stride to the rows at or above it, the first one
// writing rather than adding, and the last one — the last dim's top cut —
// reads the table. A pass per cut, not per dim with a loop over its cuts,
// measured 1.2–1.8× faster on the Large group's three-cut dims; a dim with
// one cut is the same either way.
func (g *cellGrid) classify(cols dataset.Columns, out []int32) {
	if len(g.dims) == 0 {
		for i := range out {
			out[i] = g.table[0]
		}
		return
	}
	keep := int32(0) // masks out[i] to 0 on the first pass: it holds garbage
	last := len(g.dims) - 1
	for d, dim := range g.dims {
		col, below := cols[dim.attr], dim.below
		if d == last {
			below = below[:len(below)-1]
		}
		for _, b := range below {
			gridAdd(col, b, dim.stride, keep, out)
			keep = -1
		}
	}
	dim := &g.dims[last]
	gridLast(cols[dim.attr], dim.below[len(dim.below)-1], keep, g.table, out)
}

// The grid passes. A value v is at or above a cut iff below-v is negative,
// so (below-v)>>63 is -1 there and 0 under it. gridLast adds 1: the last dim
// has stride 1 (newCellGrid assigns strides from the last dim up). Each pass
// is its own function, never inlined, so its loop keeps its operands in
// registers.

//go:noinline
func gridAdd(col []int32, below int64, stride, keep int32, out []int32) {
	col = col[:len(out)]
	for i := range out {
		out[i] = out[i]&keep + stride&int32((below-int64(col[i]))>>63)
	}
}

//go:noinline
func gridLast(col []int32, below int64, keep int32, table, out []int32) {
	col = col[:len(out)]
	for i := range out {
		out[i] = table[out[i]&keep-int32((below-int64(col[i]))>>63)]
	}
}
