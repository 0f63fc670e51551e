package cps

import (
	"math/rand"
	"testing"
	"time"

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

// BenchmarkAblationLPDecomposition compares the per-σ decomposed program that
// SolvePlan solves against the joint Figure 3 formulation (the solveJoint
// test reference) on one Medium-group statistics set — pop 2·10⁴, sample 400,
// 10 slaves: identical optimum, very different tableau sizes.
func BenchmarkAblationLPDecomposition(b *testing.B) {
	pop := gen.Population(20000, 1)
	rng := rand.New(rand.NewSource(int64(gen.Medium.N)*100 + 400))
	queries, err := gen.QueryGroup(gen.Medium, pop, 400, rng)
	if err != nil {
		b.Fatal(err)
	}
	m := query.NewMSSD(gen.DefaultPenaltyTable(gen.Medium.N, rng), queries...)
	splits, err := dataset.Partition(pop, 20, dataset.Contiguous, nil)
	if err != nil {
		b.Fatal(err)
	}
	res, err := Run(mapreduce.NewCluster(10), m, pop.Schema(), splits, Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, form := range []struct {
		name  string
		solve func(*Stats, query.Coster, SolveOptions) (*Plan, error)
	}{{"decomposed", SolvePlan}, {"joint", solveJoint}} {
		b.Run(form.name, func(b *testing.B) {
			var lpSec, obj float64
			for i := 0; i < b.N; i++ {
				start := time.Now()
				plan, err := form.solve(res.Stats, m.Costs, SolveOptions{})
				if err != nil {
					b.Fatal(err)
				}
				lpSec += time.Since(start).Seconds()
				obj += plan.Objective
			}
			b.ReportMetric(lpSec/float64(b.N), "LP-sec")
			b.ReportMetric(obj/float64(b.N), "LP-objective-$")
		})
	}
}
