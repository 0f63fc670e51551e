package stratified

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/mapreduce"
	"repro/internal/predicate"
	"repro/internal/query"
	"repro/internal/sampling"
)

// QSKey identifies a stratum across the query set: the (Q_i, s_k) mapping key
// of MR-MQE. Both indexes are 0-based.
type QSKey struct {
	Query   int
	Stratum int
}

// String renders the key as "Q1/s2" (1-based, like the paper's notation).
func (k QSKey) String() string { return fmt.Sprintf("Q%d/s%d", k.Query+1, k.Stratum+1) }

// qsOut is one reducer output of MR-MQE: the final sample of one stratum of
// one query.
type qsOut struct {
	Key    QSKey
	Sample []dataset.Tuple
}

// buildMQEJob constructs the MR-MQE job for a query set. The coordinator
// and remote workers both build jobs through this function (workers via the
// "mr-mqe" maker in portable.go).
func buildMQEJob(queries []*query.SSD, schema *dataset.Schema, opts Options) (*mapreduce.Job[dataset.Tuple, QSKey, WeightedTuples, qsOut], error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("stratified: no queries")
	}
	classes := make([]*predicate.Classifier, len(queries))
	for qi, q := range queries {
		cls, err := q.Classifier(schema)
		if err != nil {
			return nil, err
		}
		classes[qi] = cls
	}

	job := &mapreduce.Job[dataset.Tuple, QSKey, WeightedTuples, qsOut]{
		Name: "mr-mqe",
		Mapper: mapreduce.MapperFunc[dataset.Tuple, QSKey, WeightedTuples](
			func(_ *mapreduce.TaskContext, t dataset.Tuple, emit func(QSKey, WeightedTuples)) {
				if _, skip := opts.Exclude[t.ID]; skip {
					return
				}
				for qi, cls := range classes {
					if k := cls.Classify(&t); k >= 0 {
						emit(QSKey{qi, k}, sampling.Singleton(t))
					}
				}
			}),
		Reducer: mapreduce.ReducerFunc[QSKey, WeightedTuples, qsOut](
			func(ctx *mapreduce.TaskContext, k QSKey, vs []WeightedTuples, emit func(qsOut)) {
				emit(qsOut{Key: k, Sample: sampling.UnifiedSample(vs, queries[k.Query].Strata[k.Stratum].Freq, ctx.Rand)})
			}),
		KeyString: func(k QSKey) string { return fmt.Sprintf("q%04d/s%06d", k.Query, k.Stratum) },
	}
	if !opts.Naive {
		job.BatchMapper = newFusedStage(queries, classes,
			func(query, stratum int) QSKey { return QSKey{query, stratum} }, opts)
	}
	return job, nil
}

// RunMQE answers a set of SSD queries in a single MapReduce pass (Algorithm
// MR-MQE): the mapper emits a ((Q_i, s_k), ({t}, 1)) pair for every query
// whose stratum the tuple satisfies; combine and reduce are as in MR-SQE.
// It returns one answer per query, aligned with the queries slice. RunSQE's
// in-domain precondition on the splits applies.
func RunMQE(c *mapreduce.Cluster, queries []*query.SSD, schema *dataset.Schema, splits []dataset.Split, opts Options) (query.MultiAnswer, mapreduce.Metrics, error) {
	job, err := buildMQEJob(queries, schema, opts)
	if err != nil {
		return nil, mapreduce.Metrics{}, err
	}
	job.Seed = opts.Seed
	if err := makePortable(job, "mr-mqe", mqeConfig{
		Queries: queries, Fields: schema.Fields(),
		Naive: opts.Naive, Exclude: sortedExclude(opts.Exclude),
	}); err != nil {
		return nil, mapreduce.Metrics{}, err
	}

	res, err := mapreduce.Run(c, job, tupleSplits(splits))
	if err != nil {
		return nil, mapreduce.Metrics{}, err
	}
	answers := make(query.MultiAnswer, len(queries))
	for qi, q := range queries {
		answers[qi] = query.NewAnswer(len(q.Strata))
	}
	for _, out := range res.Output {
		answers[out.Key.Query].Strata[out.Key.Stratum] = out.Sample
	}
	return answers, res.Metrics, nil
}
