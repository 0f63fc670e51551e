package stratified

import (
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/predicate"
	"repro/internal/query"
	"repro/internal/sampling"
)

// Sequential answers an SSD query with a single sequential pass over the
// population, keeping one Algorithm R reservoir per stratum (Section 4.1 of
// the paper). It is the non-distributed reference implementation the
// distributed algorithms must be statistically equivalent to, and the test
// oracle for MR-SQE.
func Sequential(q *query.SSD, r *dataset.Relation, rng *rand.Rand) (*query.Answer, error) {
	answers, err := SequentialMulti([]*query.SSD{q}, r, rng)
	if err != nil {
		return nil, err
	}
	return answers[0], nil
}

// SequentialMulti answers several SSD queries in one sequential pass,
// mirroring MR-MQE; it is the oracle for the multi-query case. Each answer's
// sizes are the tuples offered to its strata's reservoirs.
func SequentialMulti(queries []*query.SSD, r *dataset.Relation, rng *rand.Rand) (query.MultiAnswer, error) {
	preds := make([][]predicate.Pred, len(queries))
	reservoirs := make([][]*sampling.Reservoir[dataset.Tuple], len(queries))
	for qi, q := range queries {
		var err error
		if preds[qi], err = q.Compile(r.Schema()); err != nil {
			return nil, err
		}
		reservoirs[qi] = make([]*sampling.Reservoir[dataset.Tuple], len(q.Strata))
		for k, s := range q.Strata {
			reservoirs[qi][k] = sampling.NewReservoir[dataset.Tuple](s.Freq, rng)
		}
	}
	tuples := r.Tuples()
	for i := range tuples {
		for qi := range queries {
			if k := query.MatchStratum(preds[qi], &tuples[i]); k >= 0 {
				reservoirs[qi][k].Add(tuples[i])
			}
		}
	}
	answers := make(query.MultiAnswer, len(queries))
	for qi, strata := range reservoirs {
		answers[qi] = query.NewAnswer(len(strata))
		answers[qi].Sizes = make([]int64, len(strata))
		for k, res := range strata {
			answers[qi].Sizes[k], answers[qi].Strata[k] = res.Seen(), res.TakeSample()
		}
	}
	return answers, nil
}
