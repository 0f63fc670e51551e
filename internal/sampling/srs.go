package sampling

import "math/rand"

// SRS draws a simple random sample of n items from the slice without
// replacement. When n >= len(items) a copy of all items is returned. The
// input slice is not modified. Every subset of size n has equal probability
// (partial Fisher–Yates over a copy).
func SRS[T any](items []T, n int, rng *rand.Rand) []T {
	if n < 0 {
		n = 0
	}
	if n >= len(items) {
		out := make([]T, len(items))
		copy(out, items)
		return out
	}
	work := make([]T, len(items))
	copy(work, items)
	for i := 0; i < n; i++ {
		j := i + rng.Intn(len(work)-i)
		work[i], work[j] = work[j], work[i]
	}
	return work[:n:n]
}

// SRSIndexes draws n distinct indexes uniformly from [0, total). When
// n >= total all indexes are returned. The result is in random order.
//
// For small n relative to total it uses Floyd's algorithm (O(n) memory,
// no O(total) allocation), which is how Algorithm 1 "uniformly selects n
// indexes from 1..N" without materialising the virtual index range.
func SRSIndexes(total int64, n int, rng *rand.Rand) []int64 {
	if n < 0 {
		n = 0
	}
	if int64(n) >= total {
		out := make([]int64, total)
		for i := range out {
			out[i] = int64(i)
		}
		return out
	}
	// Floyd's algorithm: for j = total-n .. total-1, draw t in [0, j];
	// insert t if unseen, else insert j.
	chosen := make(map[int64]struct{}, n)
	out := make([]int64, 0, n)
	for j := total - int64(n); j < total; j++ {
		t := rng.Int63n(j + 1)
		if _, dup := chosen[t]; dup {
			t = j
		}
		chosen[t] = struct{}{}
		out = append(out, t)
	}
	return out
}

// DrawWithoutReplacement removes and returns n uniformly chosen items from
// the slice (partial Fisher–Yates in place: every subset is equally likely),
// returning the drawn items and the remaining items. The input slice is
// consumed. It calls rng.Intn n times, and never when n >= len(items).
func DrawWithoutReplacement[T any](items []T, n int, rng *rand.Rand) (drawn, rest []T) {
	if n < 0 {
		n = 0
	}
	if n >= len(items) {
		return items, nil
	}
	for i := 0; i < n; i++ {
		j := i + rng.Intn(len(items)-i)
		items[i], items[j] = items[j], items[i]
	}
	return items[:n:n], items[n:]
}
