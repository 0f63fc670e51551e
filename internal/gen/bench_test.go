package gen

import (
	"testing"

	"repro/internal/dataset"
)

var popSink *dataset.Relation

// BenchmarkPopulation generates the 10⁵-author population every daemon and
// benchmark workload at that size loads. scripts/bench_regress.sh gates its
// allocs/op and B/op: the relation is built at its final size with every
// tuple's attributes and name cut from one allocation each, and IDs arrive in
// order, so no hash set is built. An allocation per row coming back reads as
// hundreds of thousands of allocations, a growth copy or a hash set as
// megabytes. The script runs it at -cpu=4: the transform phase fans out over
// GOMAXPROCS goroutines, and a goroutine the runtime has to allocate afresh
// is one allocation more, so its count follows the P count it runs at.
func BenchmarkPopulation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		popSink = Population(100_000, 1)
	}
}
