package stratified

import (
	"repro/internal/dataset"
	"repro/internal/mapreduce"
	"repro/internal/sampling"
)

// Classifier assigns a tuple to at most one sampling class per target, or
// rejects it. It may emit the same tuple under several keys (MR-CPS residual
// sampling classifies a tuple once per deficient survey).
type Classifier func(t *dataset.Tuple, emit func(key string))

// keyedOut is one reducer output of a keyed-sampling job.
type keyedOut struct {
	Key    string
	Sample []dataset.Tuple
}

// RunKeyed draws, in one MapReduce pass, a simple random sample of freqs[k]
// tuples from every class k the classifier defines. It is the engine behind
// MR-SQE generalised to arbitrary keys; MR-CPS uses it to answer the derived
// query Q′ (classes are stratum selections, avoiding the construction of the
// large conjunction formulas φ(σ)) and to sample residual deficits.
//
// Classes absent from freqs are dropped at the map stage.
func RunKeyed(c *mapreduce.Cluster, classify Classifier, freqs map[string]int, splits []dataset.Split, opts Options) (map[string][]dataset.Tuple, mapreduce.Metrics, error) {
	job := &mapreduce.Job[dataset.Tuple, string, WeightedTuples, keyedOut]{
		Name: "mr-keyed-sample",
		Seed: opts.Seed,
		Mapper: mapreduce.MapperFunc[dataset.Tuple, string, WeightedTuples](
			func(_ *mapreduce.TaskContext, t dataset.Tuple, emit func(string, WeightedTuples)) {
				if _, skip := opts.Exclude[t.ID]; skip {
					return
				}
				classify(&t, func(key string) {
					if _, want := freqs[key]; want {
						emit(key, sampling.Singleton(t))
					}
				})
			}),
		Reducer: mapreduce.ReducerFunc[string, WeightedTuples, keyedOut](
			func(ctx *mapreduce.TaskContext, k string, vs []WeightedTuples, emit func(keyedOut)) {
				emit(keyedOut{Key: k, Sample: sampling.UnifiedSample(vs, freqs[k], ctx.Rand)})
			}),
		KeyString: func(k string) string { return k },
	}
	if !opts.Naive {
		job.Combiner = combiner(func(k string) int { return freqs[k] })
	}
	res, err := mapreduce.Run(c, job, tupleSplits(splits))
	if err != nil {
		return nil, mapreduce.Metrics{}, err
	}
	out := make(map[string][]dataset.Tuple, len(res.Output))
	for _, o := range res.Output {
		out[o.Key] = o.Sample
	}
	return out, res.Metrics, nil
}

// combiner builds the Figure 2 combine function for RunKeyed's per-record
// mapper: it locally selects an intermediate sample of capacity freq(key)
// using Algorithm R over the map task's tuples for that key and tags it with
// the number of tuples it saw. Each emitted intermediate sample's size is
// observed into the job's "reservoir_size" histogram (Metrics.Custom) — the
// paper's intermediate-sample-size measurement.
func combiner[K comparable](freq func(K) int) mapreduce.Combiner[K, WeightedTuples] {
	return mapreduce.CombinerFunc[K, WeightedTuples](
		func(ctx *mapreduce.TaskContext, k K, vs []WeightedTuples, emit func(WeightedTuples)) {
			n := sampling.TotalN(vs)
			target := freq(k)
			exhaustive := true
			for _, w := range vs {
				if w.N != int64(len(w.Sample)) {
					exhaustive = false
					break
				}
			}
			if exhaustive {
				// Common case: every part is raw map output (singletons),
				// so stream the tuples through the reservoir, as in the
				// paper's combine function. AddSlice rides Algorithm L's
				// skip counts, so a full-split scan costs O(k(1+log(n/k)))
				// RNG draws rather than one per tuple.
				res := sampling.NewReservoir[dataset.Tuple](target, ctx.Rand)
				for _, w := range vs {
					res.AddSlice(w.Sample)
				}
				sample := res.Sample()
				ctx.Observe("reservoir_size", int64(len(sample)))
				emit(WeightedTuples{Sample: sample, N: n})
				return
			}
			// Some parts were already subsampled (a combiner re-run):
			// merge them without bias via the unified sampler.
			sample := sampling.UnifiedSample(vs, target, ctx.Rand)
			ctx.Observe("reservoir_size", int64(len(sample)))
			emit(WeightedTuples{Sample: sample, N: n})
		})
}
