package stratified

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/mapreduce"
	"repro/internal/predicate"
	"repro/internal/query"
	"repro/internal/sampling"
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

// rowwiseStage is the fused stage as it was before class vectors: row-wise
// Classifier.Classify inside the tuple-outer, query-inner loop. It is the
// reference the block-classifying MapSplit must equal emission for emission.
type rowwiseStage struct {
	queries []*query.SSD
	classes []*predicate.Classifier
	exclude map[int64]struct{}
}

func (s *rowwiseStage) MapSplit(ctx *mapreduce.TaskContext, split []dataset.Tuple, emit func(QSKey, WeightedTuples)) (matches int64) {
	reservoirs := make([][]*sampling.Reservoir[int32], len(s.queries))
	for qi, q := range s.queries {
		reservoirs[qi] = make([]*sampling.Reservoir[int32], len(q.Strata))
	}
	checkExclude := len(s.exclude) > 0
	for ti := range split {
		t := &split[ti]
		if checkExclude {
			if _, skip := s.exclude[t.ID]; skip {
				continue
			}
		}
		for qi, cls := range s.classes {
			k := cls.Classify(t)
			if k < 0 {
				continue
			}
			res := reservoirs[qi][k]
			if res == nil {
				res = sampling.NewReservoir[int32](s.queries[qi].Strata[k].Freq, ctx.Rand)
				reservoirs[qi][k] = res
			}
			res.Add(int32(ti))
			matches++
		}
	}
	for qi := range reservoirs {
		for k, res := range reservoirs[qi] {
			if res == nil {
				continue
			}
			rows := res.Sample()
			sample := make([]dataset.Tuple, len(rows))
			for i, ti := range rows {
				sample[i] = split[ti]
			}
			ctx.Observe("reservoir_size", int64(len(sample)))
			emit(QSKey{qi, k}, WeightedTuples{Sample: sample, N: res.Seen()})
		}
	}
	return matches
}

// randomSSD draws a query over testSchema (gender 0..1, income 0..1000):
// sometimes a covering grid, sometimes strata that overlap or leave tuples
// unclassified, so class vectors hold -1s and first-match-wins matters.
func randomSSD(rng *rand.Rand) *query.SSD {
	cut := 200 + rng.Int63n(600)
	f := func() int { return rng.Intn(12) }
	switch rng.Intn(4) {
	case 0:
		return query.NewSSD("narrow",
			query.Stratum{Cond: predicate.MustParse(fmt.Sprintf("income >= %d", cut)), Freq: f()},
			query.Stratum{Cond: predicate.MustParse(fmt.Sprintf("income < %d", cut)), Freq: f()})
	case 1:
		return query.NewSSD("wide",
			query.Stratum{Cond: predicate.MustParse(fmt.Sprintf("gender = 0 and income < %d", cut)), Freq: f()},
			query.Stratum{Cond: predicate.MustParse(fmt.Sprintf("gender = 0 and income >= %d", cut)), Freq: f()},
			query.Stratum{Cond: predicate.MustParse(fmt.Sprintf("gender = 1 and income < %d", cut)), Freq: f()},
			query.Stratum{Cond: predicate.MustParse(fmt.Sprintf("gender = 1 and income >= %d", cut)), Freq: f()})
	case 2:
		return query.NewSSD("gaps",
			query.Stratum{Cond: predicate.MustParse(fmt.Sprintf("income < %d and gender = 1", cut/2)), Freq: f()},
			query.Stratum{Cond: predicate.MustParse(fmt.Sprintf("income > %d or income = 7", cut)), Freq: f()})
	default:
		return query.NewSSD("overlap",
			query.Stratum{Cond: predicate.MustParse(fmt.Sprintf("income != %d and gender = 0", cut)), Freq: f()},
			query.Stratum{Cond: predicate.MustParse("true"), Freq: f()})
	}
}

// TestFusedEqualsRowwiseReference: classifying a block ahead through the
// column kernel changes no emission. On random splits (sizes around the block
// boundaries) × 1/2/8 queries × exclude sets, with the split's resident
// columns and with gathered ones, MapSplit emits the reference's keys,
// samples and N in the reference's order from the same seed and returns its
// match count; through the engine the reservoir_size observations and every
// counter agree too.
func TestFusedEqualsRowwiseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	schema := testSchema()
	type emission struct {
		Key QSKey
		V   WeightedTuples
	}
	for _, size := range []int{0, 1, scanBlock - 1, scanBlock, scanBlock + 1, 2*scanBlock + 300} {
		split := make(dataset.Split, size)
		exclude := map[int64]struct{}{}
		for i := range split {
			split[i] = dataset.Tuple{ID: int64(1000 + i), Attrs: []int64{rng.Int63n(2), rng.Int63n(1001)}}
			if rng.Intn(9) == 0 {
				exclude[split[i].ID] = struct{}{}
			}
		}
		resident := dataset.ColumnsOf(split, schema.NumFields())
		for _, nq := range []int{1, 2, 8} {
			queries := make([]*query.SSD, nq)
			classes := make([]*predicate.Classifier, nq)
			for qi := range queries {
				queries[qi] = randomSSD(rng)
				cls, err := queries[qi].Classifier(schema)
				if err != nil {
					t.Fatal(err)
				}
				classes[qi] = cls
			}
			for _, excl := range []map[int64]struct{}{nil, exclude} {
				name := fmt.Sprintf("size=%d/queries=%d/exclude=%d", size, nq, len(excl))
				seed := rng.Int63()
				run := func(stage mapreduce.BatchMapper[dataset.Tuple, QSKey, WeightedTuples], task int) (out []emission, matches int64) {
					ctx := &mapreduce.TaskContext{Rand: rand.New(rand.NewSource(seed)), Task: task}
					matches = stage.MapSplit(ctx, split, func(k QSKey, v WeightedTuples) { out = append(out, emission{k, v}) })
					return out, matches
				}
				want, wantMatches := run(&rowwiseStage{queries: queries, classes: classes, exclude: excl}, 0)
				key := func(q, s int) QSKey { return QSKey{q, s} }
				// Task 1 has the split's mirror; task 0 has none and task 2's
				// is not as long as the split (what a pruned task sees the
				// other way round), so both gather.
				opts := Options{Exclude: excl, Columns: []dataset.Columns{nil, resident, dataset.ColumnsOf(split[:size/2], 2)}}
				stage := newFusedStage(queries, classes, key, opts)
				for task, layout := range []string{"gathered", "resident", "short"} {
					got, gotMatches := run(stage, task)
					if gotMatches != wantMatches || !reflect.DeepEqual(got, want) {
						t.Fatalf("%s %s columns: %d matches, %d emissions; reference %d matches, %d emissions\n got  %v\n want %v",
							name, layout, gotMatches, len(got), wantMatches, len(want), got, want)
					}
				}

				// Through the engine, where Observe is live.
				build := func(o Options) *mapreduce.Job[dataset.Tuple, QSKey, WeightedTuples, qsOut] {
					job, err := buildMQEJob(queries, schema, o)
					if err != nil {
						t.Fatal(err)
					}
					job.Seed = seed
					return job
				}
				splits := []dataset.Split{split[:size/3], split[size/3:]}
				ref := build(Options{Exclude: excl})
				ref.BatchMapper = &rowwiseStage{queries: queries, classes: classes, exclude: excl}
				gathered := build(Options{Exclude: excl})
				mirrored := build(Options{Exclude: excl, Columns: []dataset.Columns{dataset.ColumnsOf(splits[0], 2), dataset.ColumnsOf(splits[1], 2)}})
				var results [3]string
				for i, job := range []*mapreduce.Job[dataset.Tuple, QSKey, WeightedTuples, qsOut]{ref, gathered, mirrored} {
					res, err := mapreduce.Run(zeroCluster(2), job, tupleSplits(splits))
					if err != nil {
						t.Fatal(err)
					}
					m := res.Metrics
					results[i] = fmt.Sprintf("out %v map %d/%d combine %d/%d shuffle %d recs %d B reservoir sizes %v",
						res.Output, m.MapInputRecords, m.MapOutputRecords, m.CombineInputRecs, m.CombineOutputRecs,
						m.ShuffleRecords, m.ShuffleBytes, m.Custom["reservoir_size"])
				}
				if results[1] != results[0] || results[2] != results[0] {
					t.Fatalf("%s: engine runs differ\n reference %s\n gathered  %s\n resident  %s", name, results[0], results[1], results[2])
				}
			}
		}
	}
}

// TestFusedTrustsAlignedColumns pins Options.Columns' precondition: the stage
// classifies from the mirror it is handed and never compares it with the rows,
// so an equal-length mirror of other rows is the caller's bug — the strata
// counts follow the mirror while the samples are drawn from the split.
func TestFusedTrustsAlignedColumns(t *testing.T) {
	schema := testSchema()
	q := query.NewSSD("g",
		query.Stratum{Cond: predicate.MustParse("gender = 0"), Freq: 3},
		query.Stratum{Cond: predicate.MustParse("gender = 1"), Freq: 3})
	cls, err := q.Classifier(schema)
	if err != nil {
		t.Fatal(err)
	}
	split, other := make(dataset.Split, 40), make(dataset.Split, 40)
	for i := range split {
		split[i] = dataset.Tuple{ID: int64(i), Attrs: []int64{0, 500}}
		other[i] = dataset.Tuple{ID: int64(100 + i), Attrs: []int64{1, 500}}
	}
	seen := func(cols dataset.Columns) map[int]int64 {
		stage := newFusedStage([]*query.SSD{q}, []*predicate.Classifier{cls},
			func(_, stratum int) int { return stratum }, Options{Columns: []dataset.Columns{cols}})
		n := map[int]int64{}
		ctx := &mapreduce.TaskContext{Rand: rand.New(rand.NewSource(1))}
		stage.MapSplit(ctx, split, func(k int, v WeightedTuples) {
			n[k] = v.N
			for _, tp := range v.Sample {
				if tp.ID >= 100 {
					t.Errorf("sampled %v, not a row of the split", tp)
				}
			}
		})
		return n
	}
	if got := seen(dataset.ColumnsOf(split, 2)); !reflect.DeepEqual(got, map[int]int64{0: 40}) {
		t.Errorf("aligned mirror: strata counts %v, want all 40 rows in stratum 0", got)
	}
	if got := seen(dataset.ColumnsOf(other, 2)); !reflect.DeepEqual(got, map[int]int64{1: 40}) {
		t.Errorf("another split's mirror: strata counts %v; the stage is documented to classify from the mirror (stratum 1)", got)
	}
}
