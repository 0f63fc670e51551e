package predicate

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
)

func BenchmarkParse(b *testing.B) {
	const src = "(nop >= 100 and cc < 50) or not (fy > 2000 or ayp = 3)"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompiledEval(b *testing.B) {
	schema := dataset.MustSchema(
		dataset.Field{Name: "a", Min: 0, Max: 1000},
		dataset.Field{Name: "b", Min: 0, Max: 1000},
	)
	pred := MustCompile(MustParse("(a >= 100 and a < 500) or (b > 900 and a != 7)"), schema)
	rng := rand.New(rand.NewSource(1))
	tuples := make([]dataset.Tuple, 1024)
	for i := range tuples {
		tuples[i] = dataset.Tuple{Attrs: []int64{rng.Int63n(1001), rng.Int63n(1001)}}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pred(&tuples[i%len(tuples)])
	}
}

func BenchmarkDisjoint(b *testing.B) {
	schema := dataset.MustSchema(
		dataset.Field{Name: "a", Min: 0, Max: 1000},
		dataset.Field{Name: "b", Min: 0, Max: 1000},
	)
	p := MustParse("(a >= 100 and a < 500) or (b > 900)")
	q := MustParse("(a >= 500 and b <= 900) or (a < 100 and b <= 900)")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Disjoint(p, q, schema); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClassify measures the fused stage's inner loop: one tuple against
// a four-stratum, two-attribute grid (the worst case is the last stratum).
func BenchmarkClassify(b *testing.B) {
	schema := dataset.MustSchema(
		dataset.Field{Name: "a", Min: 0, Max: 1000},
		dataset.Field{Name: "b", Min: 0, Max: 1000},
	)
	conds := []Expr{
		MustParse("a < 500 and b < 400"), MustParse("a < 500 and b >= 400"),
		MustParse("a >= 500 and b < 400"), MustParse("a >= 500 and b >= 400"),
	}
	cls, err := NewClassifier(conds, schema)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	tuples := make([]dataset.Tuple, 1<<16) // too many for the branch predictor to learn
	for i := range tuples {
		tuples[i] = dataset.Tuple{Attrs: []int64{rng.Int63n(1001), rng.Int63n(1001)}}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cls.Classify(&tuples[i%len(tuples)])
	}
}

// BenchmarkClassifyColumns measures the fused stage's classification kernel
// over one 12,500-row split (a 10⁵ population on 8 splits) for the two
// stratum shapes the serving benchmark draws: a narrow query (two strata, one
// test per box) and a wide one (a four-stratum grid, two tests per box), cut
// near the median so a comparing branch would be a coin flip.
func BenchmarkClassifyColumns(b *testing.B) {
	schema := dataset.MustSchema(
		dataset.Field{Name: "a", Min: 0, Max: 1000},
		dataset.Field{Name: "b", Min: 0, Max: 1000},
	)
	rng := rand.New(rand.NewSource(1))
	rows := make([]dataset.Tuple, 12500)
	for i := range rows {
		rows[i] = dataset.Tuple{Attrs: []int64{rng.Int63n(1001), rng.Int63n(1001)}}
	}
	cols := dataset.ColumnsOf(rows, 2)
	out := make([]int32, len(rows))
	for _, shape := range []struct {
		name  string
		conds []string
	}{
		{"narrow", []string{"a >= 480", "a < 480"}},
		{"wide", []string{"a < 500 and b < 400", "a < 500 and b >= 400", "a >= 500 and b < 400", "a >= 500 and b >= 400"}},
	} {
		conds := make([]Expr, len(shape.conds))
		for i, src := range shape.conds {
			conds[i] = MustParse(src)
		}
		cls, err := NewClassifier(conds, schema)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(shape.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cls.ClassifyColumns(cols, rows, out)
			}
		})
	}
}
