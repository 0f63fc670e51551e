package mapreduce

import (
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"
)

// TestQuickCountingInvariant is a property test over the whole engine: for
// random inputs, random split boundaries, random cluster sizes and either
// stage shape (forwarding or combining), a counting job always returns
// exactly the input multiset's counts.
func TestQuickCountingInvariant(t *testing.T) {
	f := func(seed int64, slavesRaw, splitsRaw uint8, combining bool) bool {
		rng := rand.New(rand.NewSource(seed))
		slaves := int(slavesRaw)%6 + 1
		numSplits := int(splitsRaw)%7 + 1

		// Random input: values in a small key space so groups form.
		n := rng.Intn(500)
		values := make([]int, n)
		truth := map[int]int64{}
		for i := range values {
			values[i] = rng.Intn(13)
			truth[values[i]]++
		}
		// Random contiguous split boundaries.
		splits := make([]records[int], numSplits)
		start := 0
		for s := 0; s < numSplits; s++ {
			end := start + rng.Intn(n-start+1)
			if s == numSplits-1 {
				end = n
			}
			splits[s] = values[start:end]
			start = end
		}

		one := func(_ *TaskContext, v int, emit func(int, int64)) { emit(v, 1) }
		job := &Job[records[int], int, int64, wcOut]{
			Name:      "quick-count",
			Seed:      seed,
			Mapper:    forwardStage[int, int, int64](one),
			Reducer:   sumReducer(func(k int, n int64) wcOut { return wcOut{strconv.Itoa(k), n} }),
			KeyString: func(k int) string { return strconv.Itoa(k) },
		}
		if combining {
			job.Mapper = sumStage[int, int]{fn: one}
		}
		cluster := &Cluster{Slaves: slaves, Cost: ZeroCostModel()}
		res, err := Run(cluster, job, splits)
		if err != nil {
			return false
		}
		if len(res.Output) != len(truth) {
			return false
		}
		for _, out := range res.Output {
			k, _ := strconv.Atoi(out.Word)
			if truth[k] != out.Count {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
