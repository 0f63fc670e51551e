package worker_test

import (
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/mapreduce"
	"repro/internal/stratified"
	"repro/internal/worker"
)

// bigPopulation builds a pop=n population over 12 splits with the test
// schema's gender/income shape — the PR 6 wire-codec budget workload
// (pop=10^5), where split and bucket payload serialization dominates the
// remote backends.
func bigPopulation(t testing.TB, n int) []dataset.Split {
	t.Helper()
	r := dataset.NewRelation(testSchema())
	for id := int64(0); id < int64(n); id++ {
		r.MustAdd(dataset.Tuple{ID: id, Attrs: []int64{id % 2, id % 1001}})
	}
	splits, err := dataset.Partition(r, 12, dataset.Contiguous, nil)
	if err != nil {
		t.Fatal(err)
	}
	return splits
}

// BenchmarkEngine100k is BenchmarkEngine at pop=10^5: one full MR-SQE job
// per op on each backend. At this volume the remote backends are dominated
// by moving 100k tuples into map tasks, which is exactly what the wire codec
// and columnar tuple batches target.
func BenchmarkEngine100k(b *testing.B) {
	splits := bigPopulation(b, 100_000)
	bench := func(b *testing.B, exec mapreduce.Executor) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c := &mapreduce.Cluster{
				Slaves: 3, SlotsPerSlave: 2,
				Cost:     mapreduce.ZeroCostModel(),
				Executor: exec,
			}
			_, _, err := stratified.RunSQE(c, testQuery(), testSchema(), splits,
				stratified.Options{Seed: int64(i)})
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("backend=inproc", func(b *testing.B) { bench(b, nil) })
	b.Run("backend=subprocess", func(b *testing.B) {
		exec := newSubprocess(b, 3, nil)
		defer exec.Close()
		b.ResetTimer()
		bench(b, exec)
	})
	b.Run(fmt.Sprintf("backend=tcp/workers=%d", 3), func(b *testing.B) {
		exec := newTCP(b, 3, worker.TCPConfig{})
		defer exec.Close()
		b.ResetTimer()
		bench(b, exec)
	})
}
