package cps

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/mapreduce"
	"repro/internal/query"
)

// BenchmarkCPSRun is one validated MR-CPS run — MR-MQE, limits, Q′ and the
// residual top-up over the same splits, plus the LP — at the shape of the
// bench's batch_cps_1e5 job: pop 10⁵, the Small group, 4 slaves. Its
// allocs/op are gated by scripts/bench_regress.sh: the three derived jobs
// allocate per map task, not per tuple.
func BenchmarkCPSRun(b *testing.B) {
	pop := gen.Population(100000, 1)
	rng := rand.New(rand.NewSource(99))
	queries, err := gen.QueryGroup(gen.Small, pop, 100, rng)
	if err != nil {
		b.Fatal(err)
	}
	m := query.NewMSSD(gen.DefaultPenaltyTable(gen.Small.N, rng), queries...)
	splits, err := dataset.Partition(pop, 8, dataset.Contiguous, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(mapreduce.NewCluster(4), m, pop.Schema(), splits, Options{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
