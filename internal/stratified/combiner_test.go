package stratified

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/mapreduce"
	"repro/internal/stats"
)

// runCombiner invokes the reference combine function (fused_test.go) directly
// with crafted weighted inputs — covering the already-subsampled merge branch
// its map stage never reaches (a combiner's inputs there are always
// singletons).
func runCombiner(t *testing.T, vs []weighted, freq int, seed int64) weighted {
	t.Helper()
	c := combiner(func(int) int { return freq })
	ctx := &mapreduce.TaskContext{Rand: rand.New(rand.NewSource(seed))}
	var out []weighted
	c(ctx, 0, vs, func(w weighted) { out = append(out, w) })
	if len(out) != 1 {
		t.Fatalf("combiner emitted %d outputs, want 1", len(out))
	}
	return out[0]
}

func tuples(ids ...int64) []dataset.Tuple {
	out := make([]dataset.Tuple, len(ids))
	for i, id := range ids {
		out[i] = dataset.Tuple{ID: id, Attrs: []int64{1}}
	}
	return out
}

func TestCombinerExhaustiveBranch(t *testing.T) {
	// Singletons, as the map phase produces.
	var vs []weighted
	for id := int64(0); id < 20; id++ {
		vs = append(vs, singleton(dataset.Tuple{ID: id, Attrs: []int64{1}}))
	}
	got := runCombiner(t, vs, 5, 1)
	if got.N != 20 {
		t.Fatalf("N = %d, want 20", got.N)
	}
	if len(got.Sample) != 5 {
		t.Fatalf("sample size %d, want 5", len(got.Sample))
	}
}

func TestCombinerMergesSubsampledParts(t *testing.T) {
	// Pre-subsampled parts (a combiner re-run): |S̄| < N.
	vs := []weighted{
		{Sample: tuples(0, 1), N: 6},
		{Sample: tuples(10, 11), N: 10},
	}
	got := runCombiner(t, vs, 2, 2)
	if got.N != 16 {
		t.Fatalf("N = %d, want 16", got.N)
	}
	if len(got.Sample) != 2 {
		t.Fatalf("sample size %d, want 2", len(got.Sample))
	}
}

// TestCombinerSubsampledUnbiased: the merge branch must weight parts by
// their source-set sizes, like the reducer's unified-sampler.
func TestCombinerSubsampledUnbiased(t *testing.T) {
	const runs = 30000
	var fromSmall int64
	for run := 0; run < runs; run++ {
		vs := []weighted{
			{Sample: tuples(0, 1), N: 4},   // 2 of 4
			{Sample: tuples(10, 11), N: 8}, // 2 of 8
		}
		got := runCombiner(t, vs, 2, int64(run))
		for _, tp := range got.Sample {
			if tp.ID < 10 {
				fromSmall++
			}
		}
	}
	// E[from block 1] per run = 2·(4/12) = 2/3.
	mean := float64(fromSmall) / runs
	if mean < 0.63 || mean > 0.71 {
		t.Fatalf("mean draws from the small block %.3f, want ≈ 2/3", mean)
	}
}

// TestCombinerExhaustiveUniform: the Algorithm R path is uniform.
func TestCombinerExhaustiveUniform(t *testing.T) {
	const runs = 15000
	counts := make([]int64, 12)
	for run := 0; run < runs; run++ {
		var vs []weighted
		for id := int64(0); id < 12; id++ {
			vs = append(vs, singleton(dataset.Tuple{ID: id, Attrs: []int64{1}}))
		}
		got := runCombiner(t, vs, 4, int64(run)+99)
		for _, tp := range got.Sample {
			counts[tp.ID]++
		}
	}
	p, err := stats.ChiSquareUniformP(counts)
	if err != nil {
		t.Fatal(err)
	}
	if p < 1e-4 {
		t.Fatalf("combiner reservoir biased: p = %g", p)
	}
}
