package stratified

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/mapreduce"
	"repro/internal/predicate"
	"repro/internal/query"
)

// BenchmarkFusedMapSplit measures one map task of the serving pass: the fused
// stage over one 25,000-row split (a 10⁵ population on 4 splits) with its
// column mirror and size column (a resident block) and a warm scratch pool, for an 8-query batch of each
// stratum shape the serving benchmark draws — narrow (two strata, a handful
// each) and wide (a four-stratum grid, 100 each). scripts/bench_regress.sh
// gates its allocs/op: the match lists live in the pool, so a task allocates
// one sample per emitted key and nothing that grows with the split.
func BenchmarkFusedMapSplit(b *testing.B) {
	schema := dataset.MustSchema(
		dataset.Field{Name: "a", Min: 0, Max: 1000},
		dataset.Field{Name: "b", Min: 0, Max: 1000},
	)
	rng := rand.New(rand.NewSource(1))
	split := make(dataset.Split, 25000)
	for i := range split {
		split[i] = dataset.Tuple{ID: int64(i), Attrs: []int64{rng.Int63n(1001), rng.Int63n(1001)}}
	}
	block := dataset.ResidentBlock(split, 2)
	for _, shape := range []struct {
		name string
		spec string // one %[1]d cut, moved per query so the eight differ
	}{
		{"narrow", "a >= %[1]d : 5 ; a < %[1]d : 10"},
		{"wide", "a < %[1]d and b < 400 : 100 ; a < %[1]d and b >= 400 : 100 ; a >= %[1]d and b < 400 : 100 ; a >= %[1]d and b >= 400 : 100"},
	} {
		queries := make([]*query.SSD, 8)
		classes := make([]*predicate.Classifier, len(queries))
		for qi := range queries {
			q, err := query.ParseSSD("Q", fmt.Sprintf(shape.spec, 400+25*qi))
			if err != nil {
				b.Fatal(err)
			}
			if classes[qi], err = q.Classifier(schema); err != nil {
				b.Fatal(err)
			}
			queries[qi] = q
		}
		stage := &fusedStage{splitScan: newSplitScan(classes, nil, nil), freqs: stratumFreqs(queries)}
		ctx := &mapreduce.TaskContext{Rand: rand.New(rand.NewSource(1))}
		pass := func() {
			emitted := 0
			matches, _ := stage.MapSplit(ctx, block, func(QSKey, refSample) { emitted++ })
			if matches != int64(len(queries)*len(split)) || emitted != len(queries)*len(queries[0].Strata) {
				b.Fatalf("%d matches, %d emissions", matches, emitted)
			}
		}
		b.Run(shape.name, func(b *testing.B) {
			// The harness collects garbage before every run, which empties
			// the pool: warm it inside the run, ahead of the timer.
			pass()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pass()
			}
		})
	}
}
