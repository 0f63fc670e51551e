package stratified

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/mapreduce"
	"repro/internal/query"
	"repro/internal/sampling"
)

// QSKey identifies a stratum across the query set: the (Q_i, s_k) mapping key
// of MR-MQE, and of every sampling job here — MR-SQE is query 0 alone, the
// MR-CPS jobs key (vector, selection). Both indexes are 0-based.
type QSKey struct {
	Query   int
	Stratum int
}

// String renders the key as "Q1/s2" (1-based, like the paper's notation).
func (k QSKey) String() string { return fmt.Sprintf("Q%d/s%d", k.Query+1, k.Stratum+1) }

// qsOut is one reducer output of a sampling job: the final sample of one
// stratum of one query.
type qsOut struct {
	Key    QSKey
	Sample []dataset.Tuple
}

// qsSamplingJob is the sampling job keyed by (vector, class): the fused stage
// over the scan's class vectors, and the unified-sampler drawing
// freqs[vector][class] tuples from the map tasks' weighted samples of a key.
func qsSamplingJob(name string, scan splitScan, freqs [][]int) *mapreduce.Job[dataset.Tuple, QSKey, WeightedTuples, qsOut] {
	return &mapreduce.Job[dataset.Tuple, QSKey, WeightedTuples, qsOut]{
		Name:   name,
		Mapper: &fusedStage{splitScan: scan, freqs: freqs},
		Reducer: mapreduce.ReducerFunc[QSKey, WeightedTuples, qsOut](
			func(ctx *mapreduce.TaskContext, k QSKey, vs []WeightedTuples, emit func(qsOut)) {
				emit(qsOut{Key: k, Sample: sampling.UnifiedSample(vs, freqs[k.Query][k.Stratum], ctx.Rand)})
			}),
		KeyString: func(k QSKey) string { return fmt.Sprintf("q%04d/s%06d", k.Query, k.Stratum) },
	}
}

// buildMQEJob constructs the MR-MQE job of the config's query set; a naive
// config swaps the forwarding stage in for the sampling one.
func buildMQEJob(cfg *jobConfig, schema *dataset.Schema) (*mapreduce.Job[dataset.Tuple, QSKey, WeightedTuples, qsOut], error) {
	classes, err := classifiers(cfg.Queries, schema)
	if err != nil {
		return nil, err
	}
	scan := newSplitScan(classes, nil, excludeSet(cfg.Exclude), cfg.columns)
	job := qsSamplingJob("mr-mqe", scan, stratumFreqs(cfg.Queries))
	if cfg.Naive {
		job.Mapper = &naiveStage{scan}
	}
	return job, nil
}

// RunMQE answers a set of SSD queries in a single MapReduce pass (Algorithm
// MR-MQE): a tuple counts towards the key (Q_i, s_k) of every query whose
// stratum it satisfies; the map-side draw and the reduce are as in MR-SQE.
// It returns one answer per query, aligned with the queries slice. RunSQE's
// in-domain precondition on the splits applies.
func RunMQE(c *mapreduce.Cluster, queries []*query.SSD, schema *dataset.Schema, splits []dataset.Split, opts Options) (query.MultiAnswer, mapreduce.Metrics, error) {
	out, met, err := mqeJob.run(c, opts.config(schema, queries...), schema, splits, opts.Seed)
	if err != nil {
		return nil, mapreduce.Metrics{}, err
	}
	answers := make(query.MultiAnswer, len(queries))
	for qi, q := range queries {
		answers[qi] = query.NewAnswer(len(q.Strata))
	}
	for _, o := range out {
		answers[o.Key.Query].Strata[o.Key.Stratum] = o.Sample
	}
	return answers, met, nil
}
