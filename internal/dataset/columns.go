package dataset

// Block is one split as a map task reads it: its rows and, for a resident
// split, the rows' column mirror and wire-size column beside them. A block
// either carries both columns or neither; one without them (Blocks, or a
// split decoded on a worker) is read from its rows alone. The zero block is
// an empty split.
type Block struct {
	Rows Split
	// Cols mirrors Rows, Cols[j][i] == Rows[i].Attrs[j] (see Columns).
	Cols Columns
	// Sizes[i] is Rows[i].ByteSize(), so a pass counts the shuffle bytes of
	// the rows it draws without reading them.
	Sizes []int32
}

// Len returns the number of rows in the block.
func (b Block) Len() int { return len(b.Rows) }

// ResidentBlock builds the block of rows over a schema of numFields fields,
// with its column mirror and wire-size column. It panics, as indexing
// t.Attrs would, if a tuple has fewer attributes.
func ResidentBlock(rows Split, numFields int) Block {
	b := Block{Rows: rows, Cols: make(Columns, numFields), Sizes: make([]int32, len(rows))}
	for j := range b.Cols {
		b.Cols[j] = make([]int32, len(rows))
	}
	for i := range rows {
		b.set(i, &rows[i])
	}
	return b
}

// Blocks wraps splits as blocks without columns, the input of a one-shot run.
func Blocks(splits []Split) []Block {
	blocks := make([]Block, len(splits))
	for i, s := range splits {
		blocks[i] = Block{Rows: s}
	}
	return blocks
}

// The edits below change the rows, the mirror and the size column of a
// resident block together; the caller owns the rows (it may write them) and
// holds whatever lock keeps passes from reading the block meanwhile.

// Append appends t.
func (b *Block) Append(t Tuple) {
	b.Rows = append(b.Rows, t)
	for j := range b.Cols {
		b.Cols[j] = append(b.Cols[j], 0)
	}
	b.Sizes = append(b.Sizes, 0)
	b.set(len(b.Rows)-1, &t)
}

// Set overwrites row i with t.
func (b *Block) Set(i int, t Tuple) {
	b.Rows[i] = t
	b.set(i, &t)
}

// SwapRemove removes row i by moving the last row into its place.
func (b *Block) SwapRemove(i int) {
	last := len(b.Rows) - 1
	b.Rows[i], b.Sizes[i] = b.Rows[last], b.Sizes[last]
	b.Rows[last] = Tuple{}
	b.Rows, b.Sizes = b.Rows[:last], b.Sizes[:last]
	for j, col := range b.Cols {
		col[i] = col[last]
		b.Cols[j] = col[:last]
	}
}

// set writes row i's cells and size from t.
func (b *Block) set(i int, t *Tuple) {
	for j := range b.Cols {
		b.Cols[j][i] = int32(t.Attrs[j])
	}
	b.Sizes[i] = int32(t.ByteSize())
}

// Columns is the column-major mirror of a Split's attributes: one slice per
// schema field, each as long as the split, with c[j][i] == split[i].Attrs[j]
// for every field whose domain fits int32. A resident block keeps one beside
// its rows so the stratum scan reads each tested attribute as a dense stream
// instead of chasing a pointer per row; ids and names stay in the rows, which
// remain the source of truth.
//
// Cells are int32 because the mirror is paid for in resident memory and the
// attributes of a population (Table 1's) are small integers. A value outside
// int32 is stored truncated, silently, so a field whose domain does not fit
// must be read from the rows (predicate.Classifier.Attrs never names such a
// field), and the tuples mirrored must be in-domain — Relation.Add's
// invariant — for a cell to mean its value. The Block edits keep a mirror in
// step with its rows.
type Columns [][]int32

// Len returns the number of rows mirrored (0 for a schema with no fields).
func (c Columns) Len() int {
	if len(c) == 0 {
		return 0
	}
	return len(c[0])
}

// ResidentBytes is the memory the mirror's values occupy.
func (c Columns) ResidentBytes() int64 {
	return int64(len(c)) * int64(c.Len()) * 4
}

// ResidentBytes estimates the memory the split's rows occupy.
func (s Split) ResidentBytes() int64 {
	var n int64
	for i := range s {
		n += s[i].ResidentBytes()
	}
	return n
}
