package predicate

// UsesGrid reports whether ClassifyColumns runs c's grid kernel over columns
// rather than Classify per row — for the external test that builds the
// paper's query groups, which this package's own tests cannot (internal/gen
// imports it).
func UsesGrid(c *Classifier) bool { return !c.rowwise }

// The random formulas, tuples and schema of the property tests, for the
// external tests that validate SSDs (internal/query imports this package).
var (
	RandomExpr  = randomExpr
	RandomTuple = randomTuple
	PredSchema  = predSchema
)
