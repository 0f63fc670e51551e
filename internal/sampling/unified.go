package sampling

import (
	"math/rand"
	"slices"
)

// UnifiedSample implements Algorithm 1 of the paper (unified-sampler): given
// K intermediate samples S̄_1..S̄_K drawn from disjoint sets of sizes N_1..N_K,
// it selects n items such that the result is a simple random sample of the
// union of the source sets.
//
// It first virtually selects n indexes uniformly from [1, ΣN_i]; the count of
// indexes falling into block i determines how many items are drawn (uniformly,
// without replacement) from S̄_i. When Σ|S̄_i| < n the union of all samples is
// returned, per line 2 of Algorithm 1.
//
// Correctness requires |S̄_i| == min(N_i, n) for every part — i.e. each
// intermediate sample either kept everything (|S̄_i| = N_i) or holds at least
// n items, which the MR-SQE map stage guarantees (it draws min(N_i, n) of
// every stratum). The function panics if a block is asked for more items than
// its intermediate sample holds, which indicates a violated precondition.
func UnifiedSample[T any](parts []Weighted[T], n int, rng *rand.Rand) []T {
	if n <= 0 {
		return nil
	}
	if TotalSampled(parts) < n {
		out := make([]T, 0, TotalSampled(parts))
		for _, p := range parts {
			out = append(out, p.Sample...)
		}
		return out
	}
	total := TotalN(parts)
	idx := SRSIndexes(total, n, rng)
	slices.Sort(idx)

	out := make([]T, 0, n)
	var lo int64 // block i covers virtual indexes [lo, lo+N_i)
	p := 0       // cursor into the sorted index list
	for _, part := range parts {
		hi := lo + part.N
		c := 0
		for p < len(idx) && idx[p] < hi {
			c++
			p++
		}
		if c > 0 {
			if c > len(part.Sample) {
				panic("sampling: unified-sampler precondition violated: block sample smaller than its draw count")
			}
			drawn, _ := DrawWithoutReplacement(append([]T(nil), part.Sample...), c, rng)
			out = append(out, drawn...)
		}
		lo = hi
	}
	return out
}
