package predicate

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"

	"repro/internal/dataset"
)

// Classifier assigns a tuple to the first of a list of formulas it
// satisfies — the stratum scan of the sampling map tasks — and is the one
// lowering of a stratum list: SSD validation (Overlap), the daemon's cache
// key (Key) and its split pruning (Meets) read the same object.
//
// The lowering is a cell grid. Every atom "attr op v" changes truth only at
// its bounds (v, and v+1 for <=, >, = and !=), so the bounds that fall
// inside their attribute's domain (Min, Max] cut the domains into cells on
// which every atom, hence every formula, is constant. A cell's class is the
// first formula that holds at the cell's lowest point. A row's cell is
// mixed-radix: the sum, over tested attributes, of stride × the number of
// the attribute's cuts at or below the value.
//
// It agrees with Compile'd predicates on every tuple whose attributes lie in
// the schema's domains (the invariant Relation.Add enforces), and only there.
type Classifier struct {
	dims  []gridDim // one per tested attribute, ascending
	table []int32   // class of each cell, -1 for none
	// attrs is what ClassifyColumns reads from columns: the dims' attributes,
	// nil when rowwise.
	attrs []int
	// rowwise keeps ClassifyColumns off the columns: a tested field's domain
	// does not fit an int32 column.
	rowwise bool
	// overlap is the first pair of formulas found holding together on a
	// cell, or -1s.
	overlap [2]int32
}

// gridDim is one tested attribute of a Classifier.
type gridDim struct {
	attr   int
	stride int32
	// below holds cut-1 for each distinct cut, ascending: v lies at or
	// above the cut iff below - v is negative.
	below []int64
}

// maxCells caps a classifier's grid, and with it what the sampler admits:
// past it NewClassifier refuses the formulas. Its table is 4 bytes a cell,
// and its build time grows with cells × formula size (EXPERIMENTS.md "One
// lowering"). Every query of the paper's groups fits (Large is 4⁴ = 256 cells
// a query).
const maxCells = 1 << 16

// NewClassifier lowers the formulas over the schema. It fails on an unknown
// attribute or expression type, and when the formulas cut the domains into
// more than maxCells cells.
func NewClassifier(conds []Expr, schema *dataset.Schema) (*Classifier, error) {
	b := &lowering{schema: schema}
	roots := make([]int32, len(conds))
	for k, cond := range conds {
		n, err := b.lower(cond)
		if err != nil {
			return nil, fmt.Errorf("predicate: formula %d: %w", k, err)
		}
		roots[k] = n
	}
	c := &Classifier{overlap: [2]int32{-1, -1}}
	if err := c.cut(b, schema); err != nil {
		return nil, err
	}
	b.resolve(c, schema)

	// Paint each formula in order over the cells it may hold on: the first
	// to hold on a cell classes it, a later one holding there overlaps.
	lo, hi, at := c.cellRange()
	for k, root := range roots {
		b.span(root, c.dims, lo, hi)
		c.eachCell(lo, hi, at, func(off int32, at []int32) bool {
			if b.holds(root, at) {
				if prev := c.table[off]; prev < 0 {
					c.table[off] = int32(k)
				} else if c.overlap[0] < 0 {
					c.overlap = [2]int32{prev, int32(k)}
				}
			}
			return true
		})
	}
	return c, nil
}

// cut collects the distinct cuts of every attribute, assigns strides and
// allocates the table, every cell unclassed.
func (c *Classifier) cut(b *lowering, schema *dataset.Schema) error {
	slices.SortFunc(b.cuts, func(x, y attrCut) int {
		if x.attr != y.attr {
			return x.attr - y.attr
		}
		return cmp.Compare(x.below, y.below)
	})
	cuts := slices.Compact(b.cuts)
	below := make([]int64, len(cuts))
	for i := 0; i < len(cuts); {
		j := i
		for ; j < len(cuts) && cuts[j].attr == cuts[i].attr; j++ {
			below[j] = cuts[j].below
		}
		c.dims = append(c.dims, gridDim{attr: cuts[i].attr, below: below[i:j:j]})
		i = j
	}
	cells := 1.0
	for _, dim := range c.dims {
		cells *= float64(len(dim.below) + 1)
	}
	if cells > maxCells {
		return fmt.Errorf("predicate: the formulas cut the domains into %.0f cells, past the cap of %d", cells, maxCells)
	}
	n := int32(1)
	for d := len(c.dims) - 1; d >= 0; d-- {
		c.dims[d].stride = n
		n *= int32(len(c.dims[d].below) + 1)
	}
	c.table = make([]int32, n)
	for i := range c.table {
		c.table[i] = -1
	}
	for _, dim := range c.dims {
		if f := schema.Field(dim.attr); f.Min < math.MinInt32 || f.Max > math.MaxInt32 {
			c.rowwise = true
		}
	}
	if !c.rowwise {
		for _, dim := range c.dims {
			c.attrs = append(c.attrs, dim.attr)
		}
	}
	return nil
}

// eachCell calls fn with the offset and per-dim index of every cell whose
// index lies in [lo[d], hi[d]) on each dim d, in ascending offset order, until
// fn returns false. at is scratch, one entry per dim.
func (c *Classifier) eachCell(lo, hi, at []int32, fn func(off int32, at []int32) bool) {
	for d := range lo {
		if lo[d] >= hi[d] {
			return
		}
	}
	copy(at, lo)
	for {
		off := int32(0)
		for d, dim := range c.dims {
			off += at[d] * dim.stride
		}
		if !fn(off, at) {
			return
		}
		d := len(at) - 1
		for ; d >= 0; d-- {
			if at[d]++; at[d] < hi[d] {
				break
			}
			at[d] = lo[d]
		}
		if d < 0 {
			return
		}
	}
}

// cellRange returns per-dim cell bounds lo, hi spanning every cell, and at,
// scratch for eachCell.
func (c *Classifier) cellRange() (lo, hi, at []int32) {
	nd := len(c.dims)
	s := make([]int32, 3*nd)
	lo, hi, at = s[:nd], s[nd:2*nd], s[2*nd:]
	for d, dim := range c.dims {
		hi[d] = int32(len(dim.below) + 1)
	}
	return lo, hi, at
}

// cellOf is the cell of value v on the dim: how many cuts lie at or below it.
func (dim *gridDim) cellOf(v int64) int32 {
	k, _ := slices.BinarySearch(dim.below, v)
	return int32(k)
}

// Classify returns the index of the first formula the tuple satisfies, or
// -1: its cell's class, each dim's cell found by binary search. It panics if
// the tuple has fewer attributes than a formula tests.
func (c *Classifier) Classify(t *dataset.Tuple) int {
	off := int32(0)
	for i := range c.dims {
		dim := &c.dims[i]
		off += dim.stride * dim.cellOf(t.Attrs[dim.attr])
	}
	return int(c.table[off])
}

// Overlap returns two formulas i < j that both hold on some in-domain point,
// and false when the formulas are pairwise disjoint over the schema's
// domains.
func (c *Classifier) Overlap() (i, j int, ok bool) {
	return int(c.overlap[0]), int(c.overlap[1]), c.overlap[0] >= 0
}

// Meets reports whether some in-domain point of the box — bounds[j] on
// schema field j, for every field — satisfies one of the formulas.
func (c *Classifier) Meets(bounds []Interval) bool {
	lo, hi, at := c.cellRange()
	for d := range c.dims {
		dim := &c.dims[d]
		b := bounds[dim.attr]
		lo[d], hi[d] = dim.cellOf(b.Lo), dim.cellOf(b.Hi)+1
	}
	met := false
	c.eachCell(lo, hi, at, func(off int32, _ []int32) bool {
		met = c.table[off] >= 0
		return !met
	})
	return met
}

// Key renders what the classifier computes — the class of every in-domain
// point — canonically: the grid coarsened to the cuts that separate two
// classes somewhere, as "attr:cut,cut;…" in attribute order, then "|" and the
// class of every coarse cell in offset order. A cut where the classes never
// change is a property of the function, not of the formulas' text, so two
// classifiers have equal keys iff they class every in-domain point alike.
func (c *Classifier) Key() string {
	lo, hi, at := c.cellRange()
	kept := make([][]bool, len(c.dims)) // kept[d][i]: cut i of dim d separates two classes
	for d, dim := range c.dims {
		kept[d] = make([]bool, len(dim.below))
	}
	c.eachCell(lo, hi, at, func(off int32, at []int32) bool {
		for d, dim := range c.dims {
			if i := at[d]; int(i) < len(dim.below) && c.table[off] != c.table[off+dim.stride] {
				kept[d][i] = true
			}
		}
		return true
	})
	var key []byte
	for d, dim := range c.dims {
		start, sep := len(key), byte(':')
		key = strconv.AppendInt(key, int64(dim.attr), 10)
		for i, b := range dim.below {
			if kept[d][i] {
				key = append(key, sep)
				key = strconv.AppendInt(key, b+1, 10)
				sep = ','
			}
		}
		if sep == ':' {
			key = key[:start] // no cut kept: the classes do not depend on it
		} else {
			key = append(key, ';')
		}
	}
	key = append(key, '|')
	c.eachCell(lo, hi, at, func(off int32, at []int32) bool {
		for d := range at {
			if at[d] > 0 && !kept[d][at[d]-1] {
				return true // inside a coarse cell, not at its lowest corner
			}
		}
		key = strconv.AppendInt(key, int64(c.table[off]), 10)
		key = append(key, ',')
		return true
	})
	return string(key)
}

// Attrs returns the attribute indexes ClassifyColumns reads from its cols
// argument, ascending; every other column may be nil. The slice is shared.
func (c *Classifier) Attrs() []int { return c.attrs }

// ClassifyColumns writes Classify(&rows[i]) into out[i] for every row, reading
// attribute values from cols, the column-major mirror of rows (cols[j][i] ==
// rows[i].Attrs[j] for every j in Attrs). len(out) must equal len(rows).
//
// It finds a row's cell with one comparison per distinct (attribute, bound)
// and reads its class from the table. A stratum scan's comparisons are coin
// flips when strata cut near the median, and a mispredicted branch costs more
// than the test, so the kernel has no data-dependent branch. Columns hold
// int32 and the arithmetic is int64, so no subtraction can overflow. A
// classifier testing a field whose domain does not fit int32 cannot read
// columns at all, and classifies each row with Classify.
//
// Precondition: every row's attributes lie in the schema's domains. There it
// agrees with Classify. Outside it need not: a column entry is the value
// truncated to int32, so a value 2^32 away from an in-range one classifies
// as that one.
func (c *Classifier) ClassifyColumns(cols dataset.Columns, rows []dataset.Tuple, out []int32) {
	out = out[:len(rows)]
	if c.rowwise {
		for i := range rows {
			out[i] = int32(c.Classify(&rows[i]))
		}
		return
	}
	if len(c.dims) == 0 {
		for i := range out {
			out[i] = c.table[0]
		}
		return
	}
	// One pass per cut: a pass adds the cut's stride to the rows at or above
	// it, the first one writing rather than adding, and the last one — the
	// last dim's top cut — reads the table. A pass per cut, not per dim with
	// a loop over its cuts, measured 1.2–1.8× faster on the Large group's
	// three-cut dims; a dim with one cut is the same either way.
	keep := int32(0) // masks out[i] to 0 on the first pass: it holds garbage
	last := len(c.dims) - 1
	for d, dim := range c.dims {
		col, below := cols[dim.attr], dim.below
		if d == last {
			below = below[:len(below)-1]
		}
		for _, b := range below {
			gridAdd(col, b, dim.stride, keep, out)
			keep = -1
		}
	}
	dim := &c.dims[last]
	gridLast(cols[dim.attr], dim.below[len(dim.below)-1], keep, c.table, out)
}

// The grid passes. A value v is at or above a cut iff below-v is negative,
// so (below-v)>>63 is -1 there and 0 under it. gridLast adds 1: the last dim
// has stride 1 (strides are assigned from the last dim up). Each pass is its
// own function, never inlined, so its loop keeps its operands in registers.

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

// lowering carries formulas onto the grid: nodes over cell indexes, in which
// And and Or chains are flattened to one node with a list of operands.
type lowering struct {
	schema *dataset.Schema
	nodes  []node
	kids   []int32   // operands of the and / or nodes
	atoms  []atom    // every comparison, resolved once the cuts are known
	cuts   []attrCut // every atom bound inside its domain
	ops    []int32   // operand stack of the chains being flattened
}

// node is one formula node over cell indexes.
type node struct {
	kind nodeKind
	neg  bool // the node's value is negated
	// An atom holds on cells [lo, hi) of dim; an and / or node's operands
	// are kids[lo:hi].
	dim    int32
	lo, hi int32
}

type nodeKind uint8

const (
	leafNode nodeKind = iota // true, or false when negated
	atomNode
	andNode
	orNode
)

// atom is a comparison waiting for its dim.
type atom struct {
	node  int32
	attr  int
	op    Op
	value int64
}

// attrCut is a cut of an attribute's domain, as cut-1.
type attrCut struct {
	attr  int
	below int64
}

func (b *lowering) add(n node) int32 {
	b.nodes = append(b.nodes, n)
	return int32(len(b.nodes) - 1)
}

// lower appends the formula's nodes and returns its root.
func (b *lowering) lower(e Expr) (int32, error) {
	switch x := e.(type) {
	case Literal:
		return b.add(node{kind: leafNode, neg: !bool(x)}), nil
	case Compare:
		idx, ok := b.schema.Index(x.Attr)
		if !ok {
			return 0, fmt.Errorf("unknown attribute %q", x.Attr)
		}
		if x.Op < Lt || x.Op > Ne {
			return 0, fmt.Errorf("bad operator %v", x.Op)
		}
		// x < v and x >= v change at v; x <= v and x > v at v+1; x = v and
		// x != v at both. A cut at c is kept, as c-1, when Min < c <= Max.
		f, v := b.schema.Field(idx), x.Value
		if x.Op != Le && x.Op != Gt && v > f.Min && v <= f.Max {
			b.cuts = append(b.cuts, attrCut{idx, v - 1})
		}
		if x.Op != Lt && x.Op != Ge && v >= f.Min && v < f.Max {
			b.cuts = append(b.cuts, attrCut{idx, v})
		}
		// x != v is the negation of x = v's cell range.
		n := b.add(node{kind: atomNode, neg: x.Op == Ne})
		b.atoms = append(b.atoms, atom{node: n, attr: idx, op: x.Op, value: v})
		return n, nil
	case Not:
		n, err := b.lower(x.X)
		if err != nil {
			return 0, err
		}
		b.nodes[n].neg = !b.nodes[n].neg
		return n, nil
	case And, Or:
		kind := andNode
		if _, ok := e.(Or); ok {
			kind = orNode
		}
		start := len(b.ops)
		if err := b.flatten(e, kind); err != nil {
			return 0, err
		}
		lo := int32(len(b.kids))
		b.kids = append(b.kids, b.ops[start:]...)
		b.ops = b.ops[:start]
		return b.add(node{kind: kind, lo: lo, hi: int32(len(b.kids))}), nil
	default:
		return 0, fmt.Errorf("unknown expression type %T", e)
	}
}

// flatten pushes the operands of a chain of kind onto ops.
func (b *lowering) flatten(e Expr, kind nodeKind) error {
	var l, r Expr
	switch x := e.(type) {
	case And:
		if kind == andNode {
			l, r = x.L, x.R
		}
	case Or:
		if kind == orNode {
			l, r = x.L, x.R
		}
	}
	if l == nil {
		n, err := b.lower(e)
		if err != nil {
			return err
		}
		b.ops = append(b.ops, n)
		return nil
	}
	if err := b.flatten(l, kind); err != nil {
		return err
	}
	return b.flatten(r, kind)
}

// resolve turns every atom into a cell range on its dim, or into a constant
// when no bound on its attribute falls inside the domain, which is then one
// cell.
func (b *lowering) resolve(c *Classifier, schema *dataset.Schema) {
	dimOf := make([]int32, schema.NumFields())
	for i := range dimOf {
		dimOf[i] = -1
	}
	for d, dim := range c.dims {
		dimOf[dim.attr] = int32(d)
	}
	for _, a := range b.atoms {
		n := &b.nodes[a.node]
		var below []int64
		if n.dim = dimOf[a.attr]; n.dim >= 0 {
			below = c.dims[n.dim].below
		}
		// A cell's lowest point is Min or its cut; the atom is constant on
		// the cell, so it holds there iff at that point.
		lowest, cells := schema.Field(a.attr).Min, len(below)+1
		rep := func(i int) int64 {
			if i == 0 {
				return lowest
			}
			return below[i-1] + 1
		}
		lt := int32(sort.Search(cells, func(i int) bool { return rep(i) >= a.value })) // cells under v
		le := int32(sort.Search(cells, func(i int) bool { return rep(i) > a.value }))  // cells at or under v
		switch a.op {
		case Lt:
			n.lo, n.hi = 0, lt
		case Le:
			n.lo, n.hi = 0, le
		case Gt:
			n.lo, n.hi = le, int32(cells)
		case Ge:
			n.lo, n.hi = lt, int32(cells)
		default: // Eq, and Ne, whose neg negates the range
			n.lo, n.hi = lt, le
		}
		if n.dim < 0 {
			n.kind, n.neg = leafNode, (n.lo == 0 && n.hi == 1) == n.neg
		}
	}
}

// span narrows lo, hi to the cells the formula may hold on: the ranges of the
// atoms it is a conjunction of, where it is one; every cell otherwise.
func (b *lowering) span(root int32, dims []gridDim, lo, hi []int32) {
	for d, dim := range dims {
		lo[d], hi[d] = 0, int32(len(dim.below)+1)
	}
	conj := []int32{root}
	if r := &b.nodes[root]; r.kind == andNode && !r.neg {
		conj = b.kids[r.lo:r.hi]
	}
	for _, k := range conj {
		if a := &b.nodes[k]; a.kind == atomNode && !a.neg {
			lo[a.dim] = max(lo[a.dim], a.lo)
			hi[a.dim] = min(hi[a.dim], a.hi)
		}
	}
}

// holds evaluates the node on the cell with per-dim index at.
func (b *lowering) holds(n int32, at []int32) bool {
	x := &b.nodes[n]
	v := true
	switch x.kind {
	case atomNode:
		i := at[x.dim]
		v = i >= x.lo && i < x.hi
	case andNode:
		for _, k := range b.kids[x.lo:x.hi] {
			if !b.holds(k, at) {
				v = false
				break
			}
		}
	case orNode:
		v = false
		for _, k := range b.kids[x.lo:x.hi] {
			if b.holds(k, at) {
				v = true
				break
			}
		}
	}
	return v != x.neg
}
