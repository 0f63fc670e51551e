package predicate

// UsesGrid reports whether ClassifyColumns runs c's cell grid rather than its
// boxes — for the external test that builds the paper's query groups, which
// this package's own tests cannot (internal/gen imports it).
func UsesGrid(c *Classifier) bool { return c.grid.table != nil }
