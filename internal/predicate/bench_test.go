package predicate

import (
	"fmt"
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
// stratum shapes the serving benchmark draws — a narrow query (two strata, one
// threshold) and a wide one (a four-stratum grid, two thresholds), cut near
// the median so a comparing branch would be a coin flip — and for one query of
// Figure 8's Large group (256 strata over four attributes). build is
// NewClassifier for the whole Large group: a classifier is rebuilt per job, so
// its lowering is a per-pass cost.
func BenchmarkClassifyColumns(b *testing.B) {
	schema := dataset.MustSchema(
		dataset.Field{Name: "a", Min: 0, Max: 1000},
		dataset.Field{Name: "b", Min: 0, Max: 1000},
		dataset.Field{Name: "c", Min: 0, Max: 1000},
		dataset.Field{Name: "d", Min: 0, Max: 1000},
	)
	rng, rngCD := rand.New(rand.NewSource(1)), rand.New(rand.NewSource(2))
	rows := make([]dataset.Tuple, 12500)
	for i := range rows {
		rows[i] = dataset.Tuple{Attrs: []int64{rng.Int63n(1001), rng.Int63n(1001), rngCD.Int63n(1001), rngCD.Int63n(1001)}}
	}
	cols := dataset.ColumnsOf(rows, 4)
	out := make([]int32, len(rows))
	large := make([][]Expr, 9)
	for i := range large {
		large[i] = largeQuery(rng)
	}
	for _, shape := range []struct {
		name  string
		conds []Expr
	}{
		{"narrow", parseAll("a >= 480", "a < 480")},
		{"wide", parseAll("a < 500 and b < 400", "a < 500 and b >= 400", "a >= 500 and b < 400", "a >= 500 and b >= 400")},
		{"large", large[0]},
	} {
		cls, err := NewClassifier(shape.conds, schema)
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
	b.Run("build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, conds := range large {
				if _, err := NewClassifier(conds, schema); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// largeQuery is one query of Figure 8's Large group over a, b, c and d, built
// as gen.QueryGroup builds one: each attribute cut into four subranges at its
// quartiles jittered by up to a tenth of a bin, the 4⁴ = 256 strata the
// conjunctions of one subrange per attribute.
func largeQuery(rng *rand.Rand) []Expr {
	var ranges [4][4]Expr
	for ai, name := range []string{"a", "b", "c", "d"} {
		bounds := [5]int64{0, 0, 0, 0, 1001}
		for i := 1; i < 4; i++ {
			bounds[i] = int64(250*i) + rng.Int63n(51) - 25
		}
		for i := range ranges[ai] {
			ranges[ai][i] = And{Compare{name, Ge, bounds[i]}, Compare{name, Le, bounds[i+1] - 1}}
		}
	}
	conds := make([]Expr, 0, 256)
	for s := 0; s < 256; s++ {
		conds = append(conds, AndAll(ranges[0][s>>6&3], ranges[1][s>>4&3], ranges[2][s>>2&3], ranges[3][s&3]))
	}
	return conds
}

// pastGridCap is eight strata, each a box on a, b and c whose bounds no other
// box shares: 17³ = 4 913 cells, past the 4 096-cell cap the grid kernel once
// had (seven such boxes fit it: 16³), and well inside maxCells.
func pastGridCap() []Expr {
	conds := make([]Expr, 8)
	for k := range conds {
		lo := 120*k + 10
		conds[k] = MustParse(fmt.Sprintf("a >= %d and a <= %d and b >= %d and b <= %d and c >= %d and c <= %d",
			lo, lo+60+k, lo+3, lo+90, lo+7, lo+100+k))
	}
	return conds
}
