package sampling

// Weighted is an intermediate sample S = (S̄, N̄): the sample itself and the
// size of the set it was drawn from. It is the value type flowing between
// the combine and reduce phases of MR-SQE and MR-MQE; a single raw tuple is
// represented as ({t}, 1), matching the map output of MR-MQE in the paper.
type Weighted[T any] struct {
	Sample []T
	N      int64
}

// Singleton wraps one item as the weighted sample ({item}, 1).
func Singleton[T any](item T) Weighted[T] {
	return Weighted[T]{Sample: []T{item}, N: 1}
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

// Sizer lets the MapReduce shuffle account bytes for weighted samples whose
// element type reports its own size.
type Sizer interface {
	ByteSize() int
}

// ByteSize reports the approximate wire size of the weighted sample: 8 bytes
// for N plus the element sizes (or 8 bytes per element when the element type
// does not implement Sizer).
func (w Weighted[T]) ByteSize() int {
	n := 8
	for i := range w.Sample {
		// Ask the element's address first: boxing a pointer is free, boxing
		// the element copies it to the heap — once per sampled tuple per
		// shuffle-size estimate.
		if s, ok := any(&w.Sample[i]).(Sizer); ok {
			n += s.ByteSize()
		} else if s, ok := any(w.Sample[i]).(Sizer); ok {
			n += s.ByteSize()
		} else {
			n += 8
		}
	}
	return n
}
