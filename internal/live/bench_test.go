package live

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/mapreduce"
	"repro/internal/query"
	"repro/internal/stratified"
)

// benchSetup builds the paper's author population at pop=10⁵ with one
// registered standing query — the configuration the acceptance criterion
// names (BENCH_PR9.json compares these numbers).
func benchSetup(b *testing.B, n int) (*Population, *query.SSD, *dataset.Schema, []dataset.Split) {
	b.Helper()
	rel := gen.Population(n, 1)
	splits, err := dataset.Partition(rel, 8, dataset.RoundRobin, nil)
	if err != nil {
		b.Fatal(err)
	}
	q, err := query.ParseSSD("Q", "nop >= 100 : 50 ; nop < 100 : 50")
	if err != nil {
		b.Fatal(err)
	}
	p, err := NewPopulation(rel.Schema(), splits, Config{StalenessBound: 64})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := p.Register("q", q, 1); err != nil {
		b.Fatal(err)
	}
	return p, q, rel.Schema(), splits
}

// BenchmarkNewPopulation is what a daemon pays to take in its population at
// 10⁵ rows: the contiguous cut and the population over it, which always
// keeps the column mirror. scripts/bench_regress.sh gates its B/op, which is the mirror, the wire-size column, the boxes and the duplicate
// check's sorted IDs: splits copied out of the relation, or an id index built
// before the first mutation, read as megabytes more.
func BenchmarkNewPopulation(b *testing.B) {
	rel := gen.Population(100_000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		splits, err := dataset.Partition(rel, 8, dataset.Contiguous, nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := NewPopulation(rel.Schema(), splits, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLiveRepair is one stratum repair at 10⁵ rows on 8 contiguous
// splits, for a two-stratum and a four-stratum query (a half and a quarter of the rows in the repaired
// stratum). scripts/bench_regress.sh gates its B/op: the repair streams the
// members into the fresh reservoir and copies only those it accepts, so its
// bytes are the reservoir's; a slice of the stratum's members coming back
// reads as megabytes.
func BenchmarkLiveRepair(b *testing.B) {
	rel := gen.Population(100_000, 1)
	for _, spec := range []string{
		"fy < 2003 : 50 ; fy >= 2003 : 50",
		"fy < 2003 and cc < 5 : 100 ; fy < 2003 and cc >= 5 : 100 ; fy >= 2003 and cc < 5 : 100 ; fy >= 2003 and cc >= 5 : 100",
	} {
		q, err := query.ParseSSD("Q", spec)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("strata=%d", len(q.Strata)), func(b *testing.B) {
			splits, err := dataset.Partition(rel, 8, dataset.Contiguous, nil)
			if err != nil {
				b.Fatal(err)
			}
			p, err := NewPopulation(rel.Schema(), splits, Config{})
			if err != nil {
				b.Fatal(err)
			}
			st, err := p.Register("q", q, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.mu.Lock()
				st.repair(p, 0)
				p.mu.Unlock()
			}
		})
	}
}

// BenchmarkLiveMaintenance measures per-mutation incremental maintenance —
// the O(sample) cost an insert/delete/update pays across registered queries.
// Compare against BenchmarkLiveRecompute: the same freshness bought by
// rerunning the engine pass per query.
func BenchmarkLiveMaintenance(b *testing.B) {
	const n = 100_000
	p, _, schema, _ := benchSetup(b, n)
	rng := rand.New(rand.NewSource(7))
	nextID := int64(10_000_000)
	attrs := func() []int64 {
		a := make([]int64, schema.NumFields())
		for i := 0; i < schema.NumFields(); i++ {
			f := schema.Field(i)
			a[i] = f.Min + rng.Int63n(f.Width())
		}
		return a
	}
	const batch = 256
	muts := make([]Mutation, 0, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		muts = muts[:0]
		for len(muts) < batch && done+len(muts) < b.N {
			switch (done + len(muts)) % 3 {
			case 0: // insert a newcomer
				muts = append(muts, Mutation{Op: OpInsert, Tuple: dataset.Tuple{ID: nextID, Attrs: attrs()}})
				nextID++
			case 1: // migrate-or-refresh an original member
				id := rng.Int63n(n)
				muts = append(muts, Mutation{Op: OpUpdate, Tuple: dataset.Tuple{ID: id, Attrs: attrs()}})
			default: // delete the newcomer again (population size stays ~n)
				muts = append(muts, Mutation{Op: OpDelete, ID: nextID - 1})
			}
		}
		res := p.Apply(muts)
		if len(res.Rejected) > 0 {
			b.Fatalf("rejected: %+v", res.Rejected)
		}
		done += res.Applied
	}
	b.StopTimer()
	s := p.Stats()
	b.ReportMetric(s.NsPerMutation, "maintain-ns/mut")
	b.ReportMetric(float64(s.Repairs), "repairs")
}

// BenchmarkLiveInsert isolates the insert path: pure Algorithm L steps, no
// deletions, so no repairs amortize in — this is the O(sample) per-mutation
// cost the tentpole claims (most inserts cost one skip-counter decrement).
func BenchmarkLiveInsert(b *testing.B) {
	const n = 100_000
	p, _, schema, _ := benchSetup(b, n)
	rng := rand.New(rand.NewSource(7))
	nextID := int64(10_000_000)
	const batch = 256
	muts := make([]Mutation, 0, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		muts = muts[:0]
		for len(muts) < batch && done+len(muts) < b.N {
			a := make([]int64, schema.NumFields())
			for i := 0; i < schema.NumFields(); i++ {
				f := schema.Field(i)
				a[i] = f.Min + rng.Int63n(f.Width())
			}
			muts = append(muts, Mutation{Op: OpInsert, Tuple: dataset.Tuple{ID: nextID, Attrs: a}})
			nextID++
		}
		res := p.Apply(muts)
		if len(res.Rejected) > 0 {
			b.Fatalf("rejected: %+v", res.Rejected)
		}
		done += res.Applied
	}
}

// BenchmarkLiveRecompute is the baseline the incremental path replaces: a
// full MR-SQE pass per query over the same population. The acceptance gate
// is recompute ≥ 5× maintenance per unit of freshness.
func BenchmarkLiveRecompute(b *testing.B) {
	const n = 100_000
	_, q, schema, splits := benchSetup(b, n)
	c := mapreduce.NewCluster(4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := stratified.RunSQE(c, q, schema, splits, stratified.Options{Seed: int64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLiveSnapshot measures a standing query's answer retrieval — the
// read path a subscriber's push or a warm /v1/sample hit takes.
func BenchmarkLiveSnapshot(b *testing.B) {
	p, _, _, _ := benchSetup(b, 100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, ok := p.Snapshot("q"); !ok {
			b.Fatal("snapshot missed")
		}
	}
}
