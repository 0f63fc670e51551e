package stratified

import (
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/mapreduce"
	"repro/internal/query"
	"repro/internal/stats"
)

// The fused stage (fused.go) promises what Figure 2 promises — exact fill,
// uniform inclusion, the per-record path's logical counters — not the
// per-record path's random stream. These tests pin exactly that.

// TestFusedExactFill: every stratum gets min(f_k, |stratum|) distinct members
// of the stratum, including strata smaller than f_k, Freq = 0 and a stratum
// nobody is in, across several queries sharing one pass.
func TestFusedExactFill(t *testing.T) {
	r := genderPop(3, 40) // 3 men: fewer than most f_k below
	splits, _ := dataset.Partition(r, 5, dataset.Skewed, nil)
	queries := []*query.SSD{
		genderSSD(5, 6),  // men short: 3 of 5
		genderSSD(0, 40), // Freq = 0, and the whole women stratum
		incomeSSD(7, 2),  // income >= 500 is empty here (ids < 43)
	}
	answers, _, err := RunMQE(zeroCluster(3), queries, r.Schema(), splits, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{{3, 6}, {0, 40}, {7, 0}}
	for qi, q := range queries {
		if err := answers[qi].Satisfies(q, r); err != nil {
			t.Errorf("query %d: %v", qi, err)
		}
		for k := range q.Strata {
			if got := len(answers[qi].Strata[k]); got != want[qi][k] {
				t.Errorf("query %d stratum %d: %d tuples, want %d", qi, k, got, want[qi][k])
			}
		}
	}
	single, _, err := RunSQE(zeroCluster(3), queries[0], r.Schema(), splits, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(single.Strata[0]) != 3 || len(single.Strata[1]) != 6 {
		t.Errorf("SQE fill %d/%d, want 3/6", len(single.Strata[0]), len(single.Strata[1]))
	}
}

// TestFusedMQEUniformOverUnequalSplits: with machines holding very different
// shares of each stratum, every member of every (query, stratum) is included
// equally often — Example 5's 20/10 men, 16/18 women layout and a skewed
// 8-split layout, at the strata audit gate.
func TestFusedMQEUniformOverUnequalSplits(t *testing.T) {
	const runs, alpha = 3000, 1e-4
	r := genderPop(30, 34)
	all := r.Tuples()
	men, women := all[:30], all[30:]
	example5 := []dataset.Split{
		append(append(dataset.Split(nil), men[:20]...), women[:16]...),
		append(append(dataset.Split(nil), men[20:]...), women[16:]...),
	}
	skewed, err := dataset.Partition(r, 8, dataset.Skewed, nil)
	if err != nil {
		t.Fatal(err)
	}
	queries := []*query.SSD{genderSSD(5, 6), incomeSSD(4, 0), genderSSD(9, 2)}
	for name, splits := range map[string][]dataset.Split{"example5": example5, "skewed8": skewed} {
		counts := make([][]int64, len(queries))
		for qi := range counts {
			counts[qi] = make([]int64, r.Len())
		}
		for run := 0; run < runs; run++ {
			answers, _, err := RunMQE(zeroCluster(4), queries, r.Schema(), splits, Options{Seed: int64(run)})
			if err != nil {
				t.Fatal(err)
			}
			for qi, ans := range answers {
				for _, tp := range ans.Union() {
					counts[qi][tp.ID]++
				}
			}
		}
		// Men are ids 0..29 and women 30..63; income = id, so all are < 500.
		cells := map[string][]int64{
			"Q1/men": counts[0][:30], "Q1/women": counts[0][30:],
			"Q2/low": counts[1],
			"Q3/men": counts[2][:30], "Q3/women": counts[2][30:],
		}
		for cell, c := range cells {
			p, err := stats.ChiSquareUniformP(c)
			if err != nil {
				t.Fatal(err)
			}
			if p < alpha {
				t.Errorf("%s %s: inclusion biased, p = %g", name, cell, p)
			}
		}
	}
}

// TestFusedCountersMatchPerRecordPath: a fused job reports the logical
// counters of the per-record mapper + combiner on the same input, so Metrics,
// the simulated cost model and the paper's combiner-output counts read the
// same whichever way the map task ran.
func TestFusedCountersMatchPerRecordPath(t *testing.T) {
	r := genderPop(500, 450)
	splits, _ := dataset.Partition(r, 5, dataset.Skewed, nil)
	queries := []*query.SSD{genderSSD(7, 5), incomeSSD(6, 9), genderSSD(0, 3)}
	for _, opts := range []Options{
		{Seed: 11},
		{Seed: 11, Exclude: map[int64]struct{}{2: {}, 499: {}, 900: {}}},
	} {
		fused, err := buildMQEJob(queries, r.Schema(), opts)
		if err != nil {
			t.Fatal(err)
		}
		perRecord, err := buildMQEJob(queries, r.Schema(), opts)
		if err != nil {
			t.Fatal(err)
		}
		perRecord.BatchMapper = nil
		perRecord.Combiner = combiner(func(k QSKey) int { return queries[k.Query].Strata[k.Stratum].Freq })
		fused.Seed, perRecord.Seed = opts.Seed, opts.Seed
		cluster := func() *mapreduce.Cluster {
			return &mapreduce.Cluster{Slaves: 3, SlotsPerSlave: 1, Cost: mapreduce.DefaultCostModel()}
		}
		a, err := mapreduce.Run(cluster(), fused, tupleSplits(splits))
		if err != nil {
			t.Fatal(err)
		}
		b, err := mapreduce.Run(cluster(), perRecord, tupleSplits(splits))
		if err != nil {
			t.Fatal(err)
		}
		counters := func(m mapreduce.Metrics) string {
			return fmt.Sprintf("map in %d out %d, combine in %d out %d, shuffle %d, groups %d, simulated map %v, reservoir sizes %v",
				m.MapInputRecords, m.MapOutputRecords, m.CombineInputRecs, m.CombineOutputRecs,
				m.ShuffleRecords, m.ReduceInputGroups, m.SimulatedMap, m.Custom["reservoir_size"])
		}
		if got, want := counters(a.Metrics), counters(b.Metrics); got != want {
			t.Errorf("exclude %d: fused counters differ from the per-record path:\n fused:      %s\n per-record: %s",
				len(opts.Exclude), got, want)
		}
	}
}
