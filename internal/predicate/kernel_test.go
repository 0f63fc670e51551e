package predicate_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/predicate"
	"repro/internal/query"
)

// TestPaperShapesTakeTheGrid pins which kernel the workloads' stratum shapes
// run: the serving benchmark's narrow and wide templates (the text grammar of
// bench/gen.go, over every attribute and pair of Table 1) and every query of
// the paper's Small, Medium and Large groups all run the cell grid's column
// kernel. A lowering change that pushes one row-wise fails here rather than
// quietly giving the scan's speed back. The group queries are also classified
// over their population both ways.
func TestPaperShapesTakeTheGrid(t *testing.T) {
	schema := gen.AuthorSchema()
	classifier := func(t *testing.T, q *query.SSD) *predicate.Classifier {
		t.Helper()
		cls, err := q.Classifier(schema)
		if err != nil {
			t.Fatal(err)
		}
		if !predicate.UsesGrid(cls) {
			t.Errorf("%s (%d strata): row-wise, want the grid", q.Name, len(q.Strata))
		}
		return cls
	}
	t.Run("bench-templates", func(t *testing.T) {
		n := schema.NumFields()
		for a := 0; a < n; a++ {
			fa := schema.Field(a)
			ta := (fa.Min + fa.Max) / 2
			narrow := fmt.Sprintf("%s >= %d : 5 ; %s < %d : 7", fa.Name, ta, fa.Name, ta)
			classifier(t, mustSSD(t, narrow))
			for b := 0; b < n; b++ {
				if b == a {
					continue
				}
				fb := schema.Field(b)
				tb := fb.Min + 1
				wide := fmt.Sprintf("%s < %d and %s < %d : 100 ; %s < %d and %s >= %d : 100 ; %s >= %d and %s < %d : 100 ; %s >= %d and %s >= %d : 100",
					fa.Name, ta, fb.Name, tb, fa.Name, ta, fb.Name, tb, fa.Name, ta, fb.Name, tb, fa.Name, ta, fb.Name, tb)
				classifier(t, mustSSD(t, wide))
			}
		}
	})
	t.Run("query-groups", func(t *testing.T) {
		pop := gen.Population(10_000, 1)
		rows := pop.Tuples()
		cols := dataset.ColumnsOf(rows, schema.NumFields())
		out := make([]int32, len(rows))
		for _, p := range gen.Groups() {
			queries, err := gen.QueryGroup(p, pop, 100, rand.New(rand.NewSource(1)))
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range queries {
				cls := classifier(t, q)
				cls.ClassifyColumns(cols, rows, out)
				for i := range rows {
					if want := cls.Classify(&rows[i]); int(out[i]) != want {
						t.Fatalf("%s row %v: ClassifyColumns %d, Classify %d", q.Name, rows[i].Attrs, out[i], want)
					}
				}
			}
		}
	})
}

func mustSSD(t *testing.T, text string) *query.SSD {
	t.Helper()
	q, err := query.ParseSSD("Q", text)
	if err != nil {
		t.Fatal(err)
	}
	return q
}
