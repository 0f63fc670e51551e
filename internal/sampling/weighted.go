package sampling

// Weighted is an intermediate sample S = (S̄, N̄): the sample itself and the
// size of the set it was drawn from. It is the value type flowing between
// the combine and reduce phases of MR-SQE and MR-MQE; a single raw tuple is
// represented as ({t}, 1), matching the map output of MR-MQE in the paper.
type Weighted[T any] struct {
	Sample []T
	N      int64
}

// TotalN sums the source-set sizes of the weighted samples.
func TotalN[T any](parts []Weighted[T]) int64 {
	var n int64
	for _, p := range parts {
		n += p.N
	}
	return n
}

// TotalSampled sums the intermediate sample sizes Σ|S̄_i|.
func TotalSampled[T any](parts []Weighted[T]) int {
	n := 0
	for _, p := range parts {
		n += len(p.Sample)
	}
	return n
}
