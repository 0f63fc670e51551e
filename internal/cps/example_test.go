package cps_test

import (
	"fmt"

	"repro/internal/cps"
	"repro/internal/dataset"
	"repro/internal/mapreduce"
	"repro/internal/predicate"
	"repro/internal/query"
)

// Answer two surveys in parallel with MR-CPS: sharing individuals between
// them costs one interview instead of two, and the LP chooses who overlaps
// while both surveys stay representative stratified samples.
func ExampleRun() {
	schema := dataset.MustSchema(
		dataset.Field{Name: "gender", Min: 0, Max: 1},
		dataset.Field{Name: "income", Min: 0, Max: 1000},
	)
	r := dataset.NewRelation(schema)
	for i := int64(0); i < 400; i++ {
		r.MustAdd(dataset.Tuple{ID: i, Attrs: []int64{i % 2, (i * 37) % 1001}})
	}
	splits, _ := dataset.Partition(r, 4, dataset.Contiguous, nil)

	men := query.NewSSD("by-gender",
		query.Stratum{Cond: predicate.MustParse("gender = 1"), Freq: 10},
		query.Stratum{Cond: predicate.MustParse("gender = 0"), Freq: 10},
	)
	income := query.NewSSD("by-income",
		query.Stratum{Cond: predicate.MustParse("income < 500"), Freq: 10},
		query.Stratum{Cond: predicate.MustParse("income >= 500"), Freq: 10},
	)
	mssd := query.NewMSSD(query.PenaltyCosts{Interview: 4}, men, income)

	cluster := &mapreduce.Cluster{Slaves: 2, Cost: mapreduce.ZeroCostModel()}
	res, err := cps.Run(cluster, mssd, schema, splits, cps.Options{Seed: 3})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("survey 1 size:", res.Answers[0].Size())
	fmt.Println("survey 2 size:", res.Answers[1].Size())
	fmt.Println("cheaper than independent selection:",
		res.Answers.Cost(mssd.Costs) < res.Initial.Cost(mssd.Costs))
	// Output:
	// survey 1 size: 20
	// survey 2 size: 20
	// cheaper than independent selection: true
}
