package query_test

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/predicate"
	"repro/internal/query"
)

// Shared-survey costs: the paper's Example 4 — a $20 face-to-face survey and
// a $4 phone survey; surveying one individual for both costs max(20, 4).
func ExampleTableCosts() {
	costs := query.TableCosts{
		Interview: []float64{20, 4},
		Shared:    map[query.Tau]float64{query.NewTau(0, 1): 20},
	}
	fmt.Println(costs.Cost(query.NewTau(0)), costs.Cost(query.NewTau(1)), costs.Cost(query.NewTau(0, 1)))
	// Output:
	// 20 4 20
}

// Penalty-based costs: sharing usually saves an interview, but penalised
// pairs make undesired sharing not pay off.
func ExamplePenaltyCosts() {
	costs := query.PenaltyCosts{
		Interview: 4,
		Penalties: map[query.Tau]float64{query.NewTau(0, 1): 10},
	}
	fmt.Println(costs.Cost(query.NewTau(0, 2)), costs.Cost(query.NewTau(0, 1)))
	// Output:
	// 4 14
}

// An SSD query is a set of disjoint stratum constraints.
func ExampleSSD() {
	q := query.NewSSD("ages",
		query.Stratum{Cond: predicate.MustParse("age < 30"), Freq: 10},
		query.Stratum{Cond: predicate.MustParse("age >= 30 and age < 70"), Freq: 10},
		query.Stratum{Cond: predicate.MustParse("age >= 70"), Freq: 5},
	)
	fmt.Println(q.Name, len(q.Strata), q.TotalFreq())
	// Output:
	// ages 3 25
}

// Validate decides whether the stratum conditions can ever overlap — the
// validity requirement on SSD queries — over the schema's domains.
func ExampleSSD_Validate() {
	schema := dataset.MustSchema(dataset.Field{Name: "age", Min: 0, Max: 120})
	young := query.Stratum{Cond: predicate.MustParse("age < 30"), Freq: 1}
	old := query.Stratum{Cond: predicate.MustParse("age >= 30"), Freq: 1}
	mid := query.Stratum{Cond: predicate.MustParse("age > 20 and age < 40"), Freq: 1}
	fmt.Println(query.NewSSD("Q", young, old).Validate(schema))
	fmt.Println(query.NewSSD("Q", young, mid).Validate(schema))
	// Output:
	// <nil>
	// query Q: strata 0 and 1 overlap: age < 30 vs age > 20 and age < 40
}
