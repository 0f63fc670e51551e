package stratified

import (
	"repro/internal/dataset"
	"repro/internal/mapreduce"
	"repro/internal/predicate"
	"repro/internal/query"
	"repro/internal/sampling"
)

// fusedStage is the map + combine stage of MR-SQE and MR-MQE (Figure 2) as
// one scan of the split: every tuple is classified once per query and its row
// index offered straight to the Algorithm L reservoir of the (query, stratum)
// it falls in. Only the ≤ f_k sampled tuples per key are materialised, and
// the task emits one ({sample}, N) pair per key it saw — what the Figure 1
// emission stream plus the combiner produce, without building the stream.
// MR-SQE is the one-query case.
//
// All reservoirs draw from the task's single random stream in tuple-outer,
// query-inner order, so a task's output is a pure function of (seed, split,
// query list) on every backend.
type fusedStage[K comparable] struct {
	queries []*query.SSD
	classes []*predicate.Classifier // aligned with queries
	key     func(query, stratum int) K
	exclude map[int64]struct{}
}

func (s *fusedStage[K]) MapSplit(ctx *mapreduce.TaskContext, split []dataset.Tuple, emit func(K, WeightedTuples)) (matches int64) {
	// One reservoir per (query, stratum), made at the key's first match.
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
			// The paper's intermediate-sample-size measurement.
			ctx.Observe("reservoir_size", int64(len(sample)))
			emit(s.key(qi, k), WeightedTuples{Sample: sample, N: res.Seen()})
		}
	}
	return matches
}
