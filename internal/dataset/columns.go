package dataset

// Columns is the column-major mirror of a Split's attributes: one slice per
// schema field, each as long as the split, with c[j][i] == split[i].Attrs[j]
// for every field whose domain fits int32. A resident split keeps one beside
// its rows so the stratum scan reads each tested attribute as a dense stream
// instead of chasing a pointer per row; ids and names stay in the rows, which
// remain the source of truth.
//
// Cells are int32 because the mirror is paid for in resident memory and the
// attributes of a population (Table 1's) are small integers. A value outside
// int32 is stored truncated, silently, so a field whose domain does not fit
// must be read from the rows (predicate.Classifier.Attrs never names such a
// field), and the tuples mirrored must be in-domain — Relation.Add's
// invariant — for a cell to mean its value.
//
// The mutators mirror the three ways a resident split changes (append,
// overwrite in place, swap-remove); whoever edits the rows calls the matching
// one under the same lock.
type Columns [][]int32

// ColumnsOf builds the mirror of a split over a schema of numFields fields.
// It panics, as indexing t.Attrs would, if a tuple has fewer attributes.
func ColumnsOf(split Split, numFields int) Columns {
	c := make(Columns, numFields)
	for j := range c {
		c[j] = make([]int32, len(split))
	}
	for i := range split {
		attrs := split[i].Attrs
		for j := range c {
			c[j][i] = int32(attrs[j])
		}
	}
	return c
}

// Len returns the number of rows mirrored (0 for a schema with no fields).
func (c Columns) Len() int {
	if len(c) == 0 {
		return 0
	}
	return len(c[0])
}

// Append mirrors appending a tuple with these attributes to the split.
func (c Columns) Append(attrs []int64) {
	for j := range c {
		c[j] = append(c[j], int32(attrs[j]))
	}
}

// Set mirrors overwriting row i's attributes.
func (c Columns) Set(i int, attrs []int64) {
	for j := range c {
		c[j][i] = int32(attrs[j])
	}
}

// SwapRemove mirrors removing row i by moving the last row into its place.
func (c Columns) SwapRemove(i int) {
	for j, col := range c {
		last := len(col) - 1
		col[i] = col[last]
		c[j] = col[:last]
	}
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

// WireSizes is the split's wire-size column: row i's Tuple.ByteSize. A
// resident split keeps one beside its mirror, edited at the same points, so
// a pass counts the shuffle bytes of the rows it draws without reading them.
func (s Split) WireSizes() []int32 {
	sizes := make([]int32, len(s))
	for i := range s {
		sizes[i] = int32(s[i].ByteSize())
	}
	return sizes
}
