package predicate_test

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/predicate"
)

// Parse a stratum condition, compile it against a schema, and evaluate it.
func ExampleParse() {
	schema := dataset.MustSchema(
		dataset.Field{Name: "gender", Min: 0, Max: 1},
		dataset.Field{Name: "yearly_income", Min: 0, Max: 1000000},
	)
	// The paper's example stratum: men under 50k or women over 100k.
	cond := predicate.MustParse(
		"(gender = 1 and yearly_income < 50000) or (gender = 0 and yearly_income > 100000)")
	pred := predicate.MustCompile(cond, schema)

	poorMan := dataset.Tuple{Attrs: []int64{1, 30000}}
	richMan := dataset.Tuple{Attrs: []int64{1, 200000}}
	fmt.Println(pred(&poorMan), pred(&richMan))
	// Output:
	// true false
}
