// Package stratified implements the paper's distributed stratified-sampling
// algorithms on top of the MapReduce engine:
//
//   - MR-SQE (Section 4.2.2, Figure 2): each map task classifies its tuples
//     by stratum constraint straight into per-stratum reservoir samples
//     tagged with the size of the set they were drawn from (map and combine
//     fused into one scan, fused.go), and the reducer applies the
//     unified-sampler (Algorithm 1) to produce an unbiased final sample.
//   - the naive variant (Section 4.2.1, Figure 1), which maps record by
//     record and shuffles every matching tuple — the baseline that shows
//     what sampling inside the map task saves.
//   - MR-MQE (Section 5.1): the multi-query extension keyed by (Q_i, s_k)
//     pairs, answering a whole set of SSD queries in a single pass over R.
package stratified

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/mapreduce"
	"repro/internal/predicate"
	"repro/internal/query"
	"repro/internal/sampling"
)

// WeightedTuples is the value type flowing from combiners to reducers: an
// intermediate sample with the size of its source set.
type WeightedTuples = sampling.Weighted[dataset.Tuple]

// Options configures a sampling run.
type Options struct {
	// Seed makes the run reproducible.
	Seed int64
	// Naive maps record by record and shuffles every matching tuple
	// (Figure 1). The default (false) is the MR-SQE of Figure 2, sampling
	// inside each map task.
	Naive bool
	// Exclude removes individuals (by ID) from consideration before
	// sampling; the CPS residual phase uses it to avoid re-selecting
	// already-chosen tuples.
	Exclude map[int64]struct{}
	// Columns, when set, holds the resident column mirror of each split,
	// index-aligned with the splits of the run. Precondition: Columns[i] is
	// the mirror of splits[i] — dataset.ColumnsOf(splits[i]) kept current —
	// or holds no rows (nil: none kept for that split). Map tasks that
	// execute in this process classify from the mirror without reading the
	// rows' attributes, so one that mirrors other rows silently changes the
	// answer; nothing checks its contents. The one length mismatch the stage
	// tolerates, by gathering from the rows, is the pruned task's: its split
	// is nil-ed in place and its mirror left alone.
	Columns []dataset.Columns
}

// stratumOut is one reducer output: the final sample of one stratum.
type stratumOut struct {
	Stratum int
	Sample  []dataset.Tuple
}

// buildSQEJob constructs the MR-SQE job for one query. The coordinator and
// remote workers both build jobs through this function (workers via the
// "mr-sqe" maker in portable.go), which is what keeps task execution
// identical across backends.
func buildSQEJob(q *query.SSD, schema *dataset.Schema, opts Options) (*mapreduce.Job[dataset.Tuple, int, WeightedTuples, stratumOut], error) {
	cls, err := q.Classifier(schema)
	if err != nil {
		return nil, err
	}

	job := &mapreduce.Job[dataset.Tuple, int, WeightedTuples, stratumOut]{
		Name: "mr-sqe:" + q.Name,
		Mapper: mapreduce.MapperFunc[dataset.Tuple, int, WeightedTuples](
			func(_ *mapreduce.TaskContext, t dataset.Tuple, emit func(int, WeightedTuples)) {
				if _, skip := opts.Exclude[t.ID]; skip {
					return
				}
				if k := cls.Classify(&t); k >= 0 {
					emit(k, sampling.Singleton(t))
				}
			}),
		Reducer: mapreduce.ReducerFunc[int, WeightedTuples, stratumOut](
			func(ctx *mapreduce.TaskContext, k int, vs []WeightedTuples, emit func(stratumOut)) {
				emit(stratumOut{Stratum: k, Sample: sampling.UnifiedSample(vs, q.Strata[k].Freq, ctx.Rand)})
			}),
		KeyString: func(k int) string { return fmt.Sprintf("s%06d", k) },
	}
	if !opts.Naive {
		job.BatchMapper = newFusedStage([]*query.SSD{q}, []*predicate.Classifier{cls},
			func(_, stratum int) int { return stratum }, opts)
	}
	return job, nil
}

// RunSQE answers a single SSD query over the distributed population and
// returns the answer plus the job's metrics.
//
// Precondition: every tuple's attributes lie in the schema's domains (the
// invariant Relation.Add and live.Population enforce; splits decoded on a
// worker come from such a population). The stratum scan reads attributes as
// int32 cells (predicate.Classifier.ClassifyColumns), so an out-of-domain
// value may land in a stratum it does not satisfy.
func RunSQE(c *mapreduce.Cluster, q *query.SSD, schema *dataset.Schema, splits []dataset.Split, opts Options) (*query.Answer, mapreduce.Metrics, error) {
	job, err := buildSQEJob(q, schema, opts)
	if err != nil {
		return nil, mapreduce.Metrics{}, err
	}
	job.Seed = opts.Seed
	if err := makePortable(job, "mr-sqe", sqeConfig{
		Query: q, Fields: schema.Fields(),
		Naive: opts.Naive, Exclude: sortedExclude(opts.Exclude),
	}); err != nil {
		return nil, mapreduce.Metrics{}, err
	}

	res, err := mapreduce.Run(c, job, tupleSplits(splits))
	if err != nil {
		return nil, mapreduce.Metrics{}, err
	}
	ans := query.NewAnswer(len(q.Strata))
	for _, out := range res.Output {
		ans.Strata[out.Stratum] = out.Sample
	}
	return ans, res.Metrics, nil
}

// tupleSplits converts typed dataset splits to the engine's input shape.
func tupleSplits(splits []dataset.Split) [][]dataset.Tuple {
	out := make([][]dataset.Tuple, len(splits))
	for i, s := range splits {
		out[i] = s
	}
	return out
}
