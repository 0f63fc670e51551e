package mapreduce

import (
	"strconv"
	"testing"
)

// TestTaskRandPinned: the first draws of two task seeds, through the
// *rand.Rand methods samplers call. Every sample of every job hangs off these
// streams; a change here moves all of them and must be deliberate (regenerate
// experiments_output.txt and say so).
func TestTaskRandPinned(t *testing.T) {
	for _, c := range []struct {
		seed     int64
		u64      uint64
		i63      int64
		intn1000 [2]int
	}{
		{1, 14586463485024025064, 3632381360324050174, [2]int{869, 384}},
		{-7046029254386353131, 7886122047950563141, 762241181572955056, [2]int{385, 715}},
	} {
		r := newTaskRand(c.seed)
		if got := r.Uint64(); got != c.u64 {
			t.Errorf("seed %d: Uint64 = %d, pinned %d", c.seed, got, c.u64)
		}
		if got := r.Int63(); got != c.i63 {
			t.Errorf("seed %d: Int63 = %d, pinned %d", c.seed, got, c.i63)
		}
		if got := [2]int{r.Intn(1000), r.Intn(1000)}; got != c.intn1000 {
			t.Errorf("seed %d: Intn(1000) twice = %v, pinned %v", c.seed, got, c.intn1000)
		}
		// Reseeding restarts the stream, as the reduce stage relies on.
		r.Seed(c.seed)
		if got := r.Uint64(); got != c.u64 {
			t.Errorf("seed %d: Uint64 after reseed = %d, pinned %d", c.seed, got, c.u64)
		}
	}
	// The seed of map task 0's stream, the only one a map task has.
	if got, want := taskSeed(1, mapStream, "0"), int64(1815893758193289233); got != want {
		t.Errorf("taskSeed(1, %s, 0) = %d, pinned %d", mapStream, got, want)
	}
}

// TestTaskStreamsDistinct: the streams of one job's map tasks and reduce keys
// — and of the same task under neighbouring job seeds — share no first draws.
func TestTaskStreamsDistinct(t *testing.T) {
	seen := map[[2]uint64]string{}
	for jobSeed := int64(0); jobSeed < 4; jobSeed++ {
		for i := 0; i < 256; i++ {
			for _, id := range [][2]string{
				{mapStream, strconv.Itoa(i)},
				{"reduce", "q" + strconv.Itoa(i/8) + "/s" + strconv.Itoa(i%8)},
			} {
				name := strconv.FormatInt(jobSeed, 10) + "/" + id[0] + "/" + id[1]
				r := newTaskRand(taskSeed(jobSeed, id[0], id[1]))
				first := [2]uint64{r.Uint64(), r.Uint64()}
				if other, dup := seen[first]; dup {
					t.Fatalf("streams %s and %s start alike: %v", name, other, first)
				}
				seen[first] = name
			}
		}
	}
}
