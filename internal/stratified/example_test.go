package stratified_test

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/mapreduce"
	"repro/internal/predicate"
	"repro/internal/query"
	"repro/internal/stratified"
)

// Answer a stratified-sampling query over a population distributed on two
// machines with MR-SQE.
func ExampleRunSQE() {
	schema := dataset.MustSchema(dataset.Field{Name: "gender", Min: 0, Max: 1})
	r := dataset.NewRelation(schema)
	for i := int64(0); i < 64; i++ {
		gender := int64(0)
		if i < 30 {
			gender = 1
		}
		r.MustAdd(dataset.Tuple{ID: i, Attrs: []int64{gender}})
	}
	splits, _ := dataset.Partition(r, 2, dataset.Contiguous, nil)

	q := query.NewSSD("example5",
		query.Stratum{Cond: predicate.MustParse("gender = 1"), Freq: 5},
		query.Stratum{Cond: predicate.MustParse("gender = 0"), Freq: 6},
	)
	cluster := &mapreduce.Cluster{Slaves: 2, Cost: mapreduce.ZeroCostModel()}
	ans, _, _ := stratified.RunSQE(cluster, q, schema, splits, stratified.Options{Seed: 1})
	fmt.Printf("men sampled: %d, women sampled: %d\n", len(ans.Strata[0]), len(ans.Strata[1]))
	// Output:
	// men sampled: 5, women sampled: 6
}
