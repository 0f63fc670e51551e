package mapreduce

import (
	"math/rand"
	randv2 "math/rand/v2"
)

// pcgSource is a task's random stream: math/rand/v2's PCG behind the
// rand.Source64 that TaskContext.Rand's *rand.Rand draws from. Seeding is two
// word stores, so the engine seeds one stream per map task and reseeds one per
// reduce key without the cost showing in a pass.
type pcgSource struct{ randv2.PCG }

func (s *pcgSource) Int63() int64 { return int64(s.Uint64() >> 1) }

// Seed fills both state words from the seed, so no two tasks share the low
// half of the generator's state.
func (s *pcgSource) Seed(seed int64) {
	s.PCG.Seed(uint64(seed), uint64(seed)*0x9e3779b97f4a7c15+1)
}

// newTaskRand returns the stream of one task seed. Equal seeds yield equal
// streams, and every stream is private to one task (or one reduce key), so
// output is reproducible regardless of goroutine interleaving.
func newTaskRand(seed int64) *rand.Rand {
	s := new(pcgSource)
	s.Seed(seed)
	return rand.New(s)
}
