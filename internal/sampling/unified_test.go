package sampling

import (
	"math/rand"
	"testing"

	"repro/internal/stats"
)

// TestUnifiedSampleExactSize: the result has min(Σ|S̄_i|, n) items.
func TestUnifiedSampleExactSize(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	parts := []Weighted[int]{
		{Sample: []int{1, 2, 3}, N: 10},
		{Sample: []int{4, 5, 6}, N: 20},
	}
	if got := UnifiedSample(parts, 4, rng); len(got) != 4 {
		t.Fatalf("got %d items, want 4", len(got))
	}
	if got := UnifiedSample(parts, 10, rng); len(got) != 6 {
		t.Fatalf("insufficient case: got %d, want all 6", len(got))
	}
	if got := UnifiedSample(parts, 0, rng); len(got) != 0 {
		t.Fatalf("n=0: got %d", len(got))
	}
}

// TestUnifiedSampleSection42Example reproduces the paper's Section 4.2
// walk-through: S1 holds 2 males of 4, S2 holds 2 males of 8; selecting 2
// males overall must give every one of the 12 males probability 2/12 = 1/6 —
// so a male of S1's *intermediate sample* appears with probability
// (1/6)/(1/2) = 1/3 and one of S2's with (1/6)/(1/4) = 2/3.
func TestUnifiedSampleSection42Example(t *testing.T) {
	const runs = 60000
	rng := rand.New(rand.NewSource(2))
	var fromS1 int64
	for run := 0; run < runs; run++ {
		parts := []Weighted[string]{
			{Sample: []string{"s1a", "s1b"}, N: 4},
			{Sample: []string{"s2a", "s2b"}, N: 8},
		}
		for _, v := range UnifiedSample(parts, 2, rng) {
			if v == "s1a" || v == "s1b" {
				fromS1++
			}
		}
	}
	// E[selected from block 1] per run = 2 * 4/12 = 2/3.
	got := float64(fromS1) / runs
	if got < 0.64 || got > 0.70 {
		t.Fatalf("mean draws from S1 = %.4f, want ≈ 2/3", got)
	}
}

// TestUnifiedSampleUniformOverVirtualPopulation: with exhaustive blocks
// (samples = whole sets), every element of the union must be included
// uniformly.
func TestUnifiedSampleUniformOverVirtualPopulation(t *testing.T) {
	const runs = 20000
	rng := rand.New(rand.NewSource(3))
	counts := make([]int64, 9)
	for run := 0; run < runs; run++ {
		parts := []Weighted[int]{
			{Sample: []int{0, 1}, N: 2},
			{Sample: []int{2, 3, 4, 5}, N: 4},
			{Sample: []int{6, 7, 8}, N: 3},
		}
		for _, v := range UnifiedSample(parts, 3, rng) {
			counts[v]++
		}
	}
	p, err := stats.ChiSquareUniformP(counts)
	if err != nil {
		t.Fatal(err)
	}
	if p < 1e-4 {
		t.Fatalf("unified sample not uniform: p = %g, counts = %v", p, counts)
	}
}

// TestUnifiedSampleSubsampledBlocksUnbiased: blocks hold intermediate
// samples of capacity n (as the MR-SQE combiner produces); inclusion must
// still be uniform over the *source* population. Block sizes differ to
// expose the 1/4-vs-1/8 bias the paper warns about.
func TestUnifiedSampleSubsampledBlocksUnbiased(t *testing.T) {
	const runs = 30000
	const n = 2
	rng := rand.New(rand.NewSource(4))
	// Source sets: block A = {0..3}, block B = {4..11}.
	counts := make([]int64, 12)
	for run := 0; run < runs; run++ {
		a := SRS([]int{0, 1, 2, 3}, n, rng)
		b := SRS([]int{4, 5, 6, 7, 8, 9, 10, 11}, n, rng)
		parts := []Weighted[int]{
			{Sample: a, N: 4},
			{Sample: b, N: 8},
		}
		for _, v := range UnifiedSample(parts, n, rng) {
			counts[v]++
		}
	}
	p, err := stats.ChiSquareUniformP(counts)
	if err != nil {
		t.Fatal(err)
	}
	if p < 1e-4 {
		t.Fatalf("end-to-end inclusion biased: p = %g, counts = %v", p, counts)
	}
}

func TestUnifiedSamplePreconditionPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	defer func() {
		if recover() == nil {
			t.Fatal("want panic when a block's sample is smaller than its draw count")
		}
	}()
	// Block claims N=100 but only has 1 sampled item while the other block
	// is tiny — with n=3 the virtual draw will demand >1 from block 1.
	parts := []Weighted[int]{
		{Sample: []int{1}, N: 100},
		{Sample: []int{2, 3}, N: 2},
	}
	for i := 0; i < 100; i++ {
		UnifiedSample(parts, 3, rng)
	}
}

func TestWeightedHelpers(t *testing.T) {
	parts := []Weighted[int]{{Sample: []int{1}, N: 5}, {Sample: []int{2, 3}, N: 7}}
	if TotalN(parts) != 12 {
		t.Fatalf("TotalN = %d", TotalN(parts))
	}
	if TotalSampled(parts) != 3 {
		t.Fatalf("TotalSampled = %d", TotalSampled(parts))
	}
}
