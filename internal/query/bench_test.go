package query_test

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/query"
)

// BenchmarkValidate measures SSD validation — lowering the strata to their
// cell grid and sweeping it for overlaps — for one query of Figure 8's Large
// group (256 strata over four attributes, as gen.QueryGroup builds it) and for
// the serving benchmark's wide template (a 2 × 2 grid of strata over two
// attributes, the grammar of bench/gen.go). The daemon validates every
// request, and scripts/bench_regress.sh gates allocs/op.
func BenchmarkValidate(b *testing.B) {
	pop := gen.Population(10_000, 1)
	schema := pop.Schema()
	large, err := gen.QueryGroup(gen.Large, pop, 100, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	wide, err := query.ParseSSD("Q",
		"nop < 350 and ayp < 1 : 100 ; nop < 350 and ayp >= 1 : 100 ; nop >= 350 and ayp < 1 : 100 ; nop >= 350 and ayp >= 1 : 100")
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		q    *query.SSD
	}{{"large", large[0]}, {"wide", wide}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := c.q.Validate(schema); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
