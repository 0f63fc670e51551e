// Benchmarks regenerating every table and figure of the paper's evaluation,
// plus ablations for the design choices called out in DESIGN.md. Each bench
// reports the reproduced quantity as a custom metric, so `go test -bench=.`
// doubles as the reproduction readout:
//
//	BenchmarkTable2/*      — cost(CPS)/cost(MQE) per query group   (Table 2)
//	BenchmarkFigure6/*     — mean surveys per individual           (Figure 6)
//	BenchmarkFigure7/*     — simulated seconds per cluster size    (Figure 7)
//	BenchmarkFigure8/*     — LP formulate+solve seconds            (Figure 8)
//	BenchmarkOptimality/*  — residual fraction, C_A/C_IP           (§6.2.2)
//	BenchmarkUniform/*     — cost ratio on the uniform dataset     (§6.2.1)
//	BenchmarkAblation*     — combiner, layout
//
// The LP-decomposition ablation (per-σ blocks against the joint Figure 3
// program) lives beside the joint reference it times:
// go test ./internal/cps -bench AblationLPDecomposition.
package repro_test

import (
	"math/rand"
	"testing"

	"repro/internal/cps"
	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/mapreduce"
	"repro/internal/query"
	"repro/internal/stratified"
)

// benchPop is shared across benches; generating it once keeps -bench=. fast.
const benchPopSize = 20000

var benchPop = gen.Population(benchPopSize, 1)

type benchWorkload struct {
	mssd    *query.MSSD
	queries []*query.SSD
	schema  *dataset.Schema
	splits  []dataset.Split
}

func buildBenchWorkload(b *testing.B, group gen.GroupParams, sample int) *benchWorkload {
	b.Helper()
	rng := rand.New(rand.NewSource(int64(group.N)*100 + int64(sample)))
	queries, err := gen.QueryGroup(group, benchPop, sample, rng)
	if err != nil {
		b.Fatal(err)
	}
	costs := gen.DefaultPenaltyTable(group.N, rng)
	splits, err := dataset.Partition(benchPop, 20, dataset.Contiguous, nil)
	if err != nil {
		b.Fatal(err)
	}
	return &benchWorkload{
		mssd:    query.NewMSSD(costs, queries...),
		queries: queries,
		schema:  benchPop.Schema(),
		splits:  splits,
	}
}

func benchCluster(slaves int) *mapreduce.Cluster { return mapreduce.NewCluster(slaves) }

// BenchmarkTable2 regenerates Table 2: the survey-cost ratio per query group.
func BenchmarkTable2(b *testing.B) {
	for _, group := range gen.Groups() {
		b.Run(group.Name, func(b *testing.B) {
			w := buildBenchWorkload(b, group, 400)
			cluster := benchCluster(10)
			var ratioSum float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := cps.Run(cluster, w.mssd, w.schema, w.splits, cps.Options{Seed: int64(i)})
				if err != nil {
					b.Fatal(err)
				}
				ratioSum += res.Answers.Cost(w.mssd.Costs) / res.Initial.Cost(w.mssd.Costs)
			}
			b.ReportMetric(100*ratioSum/float64(b.N), "costCPS/costMQE-%")
		})
	}
}

// BenchmarkFigure6 regenerates Figure 6: how many surveys an individual
// selected by MR-CPS participates in, on average.
func BenchmarkFigure6(b *testing.B) {
	for _, group := range gen.Groups() {
		b.Run(group.Name, func(b *testing.B) {
			w := buildBenchWorkload(b, group, 400)
			cluster := benchCluster(10)
			var meanSum, mqeShareSum float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := cps.Run(cluster, w.mssd, w.schema, w.splits, cps.Options{Seed: int64(i)})
				if err != nil {
					b.Fatal(err)
				}
				var individuals, assignments, mqeShared, mqeTotal float64
				for j, c := range res.Answers.SharingHistogram() {
					individuals += float64(c)
					assignments += float64(j * c)
				}
				for j, c := range res.Initial.SharingHistogram() {
					mqeTotal += float64(c)
					if j > 1 {
						mqeShared += float64(c)
					}
				}
				meanSum += assignments / individuals
				mqeShareSum += mqeShared / mqeTotal
			}
			b.ReportMetric(meanSum/float64(b.N), "surveys/individual")
			b.ReportMetric(100*mqeShareSum/float64(b.N), "MQE-shared-%")
		})
	}
}

// BenchmarkFigure7 regenerates Figure 7: virtual-clock running times per
// cluster size for MR-MQE and MR-CPS.
func BenchmarkFigure7(b *testing.B) {
	for _, alg := range []string{"MQE", "CPS"} {
		for _, slaves := range []int{1, 5, 10} {
			b.Run(alg+"/"+gen.Medium.Name+"/slaves="+itoa(slaves), func(b *testing.B) {
				w := buildBenchWorkload(b, gen.Medium, 400)
				cluster := benchCluster(slaves)
				var simSum float64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					switch alg {
					case "MQE":
						_, met, err := stratified.RunMQE(cluster, w.queries, w.schema, w.splits, stratified.Options{Seed: int64(i)})
						if err != nil {
							b.Fatal(err)
						}
						simSum += met.SimulatedTotal().Seconds()
					case "CPS":
						res, err := cps.Run(cluster, w.mssd, w.schema, w.splits, cps.Options{Seed: int64(i)})
						if err != nil {
							b.Fatal(err)
						}
						simSum += res.Metrics.SimulatedTotal().Seconds()
					}
				}
				b.ReportMetric(simSum/float64(b.N), "simulated-sec")
			})
		}
	}
}

// BenchmarkFigure8 regenerates Figure 8: LP formulate+solve time.
func BenchmarkFigure8(b *testing.B) {
	for _, group := range gen.Groups() {
		b.Run(group.Name, func(b *testing.B) {
			w := buildBenchWorkload(b, group, 400)
			cluster := benchCluster(10)
			var lpSum float64
			var vars float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := cps.Run(cluster, w.mssd, w.schema, w.splits, cps.Options{Seed: int64(i)})
				if err != nil {
					b.Fatal(err)
				}
				lpSum += (res.LP.FormulateTime + res.LP.SolveTime).Seconds()
				vars += float64(res.LP.Vars)
			}
			b.ReportMetric(lpSum/float64(b.N), "LP-sec")
			b.ReportMetric(vars/float64(b.N), "LP-vars")
		})
	}
}

// BenchmarkOptimality regenerates the Section 6.2.2 analysis: the residual
// fraction and how far the realised cost sits above the exact IP optimum.
func BenchmarkOptimality(b *testing.B) {
	for _, group := range []gen.GroupParams{gen.Small, gen.Medium} {
		b.Run(group.Name, func(b *testing.B) {
			w := buildBenchWorkload(b, group, 400)
			cluster := benchCluster(10)
			var residSum, gapSum float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lpRes, err := cps.Run(cluster, w.mssd, w.schema, w.splits, cps.Options{Seed: int64(i)})
				if err != nil {
					b.Fatal(err)
				}
				ipRes, err := cps.Run(cluster, w.mssd, w.schema, w.splits, cps.Options{
					Seed:  int64(i),
					Solve: cps.SolveOptions{Integer: true},
				})
				if err != nil {
					b.Fatal(err)
				}
				total := float64(lpRes.PlannedTuples + lpRes.ResidualTuples)
				residSum += float64(lpRes.ResidualTuples) / total
				ca := lpRes.Answers.Cost(w.mssd.Costs)
				gapSum += (ca - ipRes.LP.Objective) / ca
			}
			b.ReportMetric(100*residSum/float64(b.N), "residual-%")
			b.ReportMetric(100*gapSum/float64(b.N), "gap-to-IP-%")
		})
	}
}

// BenchmarkUniform regenerates the Section 6.2.1 robustness check on the
// uniform no-correlation dataset.
func BenchmarkUniform(b *testing.B) {
	uniformPop := gen.UniformPopulation(benchPopSize, 1)
	rng := rand.New(rand.NewSource(301))
	queries, err := gen.QueryGroup(gen.Small, uniformPop, 400, rng)
	if err != nil {
		b.Fatal(err)
	}
	costs := gen.DefaultPenaltyTable(gen.Small.N, rng)
	mssd := query.NewMSSD(costs, queries...)
	splits, err := dataset.Partition(uniformPop, 20, dataset.Contiguous, nil)
	if err != nil {
		b.Fatal(err)
	}
	cluster := benchCluster(10)
	var ratioSum float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := cps.Run(cluster, mssd, uniformPop.Schema(), splits, cps.Options{Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		ratioSum += res.Answers.Cost(costs) / res.Initial.Cost(costs)
	}
	b.ReportMetric(100*ratioSum/float64(b.N), "costCPS/costMQE-%")
}

// BenchmarkAblationCombiner compares the naive Figure 1 program — the
// forwarding stage, every matching tuple shuffled — against the Figure 2
// program as the engine runs it, map and combine fused into one
// classify-and-sample scan per split: same answers in distribution,
// radically different shuffle volume, and no emission stream on the fused
// side.
func BenchmarkAblationCombiner(b *testing.B) {
	w := buildBenchWorkload(b, gen.Small, 400)
	cluster := benchCluster(10)
	for _, naive := range []bool{false, true} {
		name := "combiner"
		if naive {
			name = "naive"
		}
		b.Run(name, func(b *testing.B) {
			var shuffled float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, met, err := stratified.RunMQE(cluster, w.queries, w.schema, w.splits, stratified.Options{
					Seed:  int64(i),
					Naive: naive,
				})
				if err != nil {
					b.Fatal(err)
				}
				shuffled += float64(met.ShuffleRecords)
			}
			b.ReportMetric(shuffled/float64(b.N), "shuffle-records")
		})
	}
}

// BenchmarkAblationPartitioning shows MR-SQE is insensitive to how the data
// is laid out across machines (the correctness claim of Section 4.2.3 in
// performance terms).
func BenchmarkAblationPartitioning(b *testing.B) {
	w := buildBenchWorkload(b, gen.Small, 400)
	cluster := benchCluster(10)
	rng := rand.New(rand.NewSource(11))
	for _, strat := range []dataset.Partitioning{dataset.RoundRobin, dataset.Contiguous, dataset.Skewed} {
		splits, err := dataset.Partition(benchPop, 20, strat, rng)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(strat.String(), func(b *testing.B) {
			var sim float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, met, err := stratified.RunMQE(cluster, w.queries, w.schema, splits, stratified.Options{Seed: int64(i)})
				if err != nil {
					b.Fatal(err)
				}
				sim += met.SimulatedTotal().Seconds()
			}
			b.ReportMetric(sim/float64(b.N), "simulated-sec")
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
