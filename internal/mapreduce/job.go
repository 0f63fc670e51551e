package mapreduce

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
)

// Pair is a key-value pair.
type Pair[K comparable, V any] struct {
	Key   K
	Value V
}

// Mapper is the map stage of one whole split — the engine's one map
// interface. One call scans the split, a value of the job's split type S,
// and emits the pairs that go to the shuffle; the paper's two map-side
// programs are its two shapes. A forwarding stage (Figure 1) emits one pair
// per match and returns (matches, 0). A
// combining stage (Figure 2) aggregates in place and emits only the
// aggregates — one ({sample}, N) pair per key it saw — returning
// (matches, matches): combined counts the matches folded before the shuffle.
//
// The two counts are the task's logical counters, the same on every backend:
// matches are its map-output records, combined its combine-input records and,
// when combined > 0, the pairs it emitted its combine-output records — so
// Metrics and the simulated cost model read as for a per-record mapper with
// or without a combiner behind it. A job whose tasks combined nothing (a
// forwarding job, or a combining one that matched no record) has no combine
// spans. A deterministic stage draws randomness only from ctx.Rand and emits
// keys in a fixed order.
type Mapper[S any, K comparable, V any] interface {
	MapSplit(ctx *TaskContext, split S, emit func(K, V)) (matches, combined int64)
}

// sized bounds a job's split type: the engine reads only a split's record
// count (its map-input records); what a split holds is its Mapper's business,
// and how it travels its job's Codecs'.
type sized interface{ Len() int }

// Reducer merges all values of one key into zero or more output records.
type Reducer[K comparable, V any, O any] interface {
	Reduce(ctx *TaskContext, key K, values []V, emit func(O))
}

// ReducerFunc adapts a function to the Reducer interface.
type ReducerFunc[K comparable, V any, O any] func(ctx *TaskContext, key K, values []V, emit func(O))

// Reduce calls the function.
func (f ReducerFunc[K, V, O]) Reduce(ctx *TaskContext, key K, values []V, emit func(O)) {
	f(ctx, key, values, emit)
}

// Job describes one MapReduce program. A Mapper and a Reducer are required;
// KeyString and NumReducers have sensible defaults.
type Job[S sized, K comparable, V any, O any] struct {
	// Name labels the job in metrics and errors.
	Name string
	// Mapper runs the map stage: one call per split.
	Mapper Mapper[S, K, V]
	// Reducer merges the values of each key.
	Reducer Reducer[K, V, O]
	// NumReducers is the number of reduce tasks (default: the cluster's
	// slave count, at least 1).
	NumReducers int
	// KeyString renders a key canonically; it drives partitioning,
	// deterministic reduce ordering and per-key RNG seeding (default:
	// fmt.Sprint).
	KeyString func(K) string
	// Seed makes the job's task RNGs — and hence its output — reproducible.
	Seed int64
	// Config is the job's serialized argument and Codecs its wire formats:
	// an Executor's workers rebuild the job from Config through their one
	// builder (NewInproc) and move its payloads with Codecs. A job without
	// Codecs runs only on a cluster without an Executor.
	Config []byte
	Codecs *Codecs[S, K, V, O]
}

func (j *Job[S, K, V, O]) keyString(k K) string {
	if j.KeyString != nil {
		return j.KeyString(k)
	}
	return fmt.Sprint(k)
}

// partition routes a key to one of n reducers: the FNV hash of its
// KeyString.
func (j *Job[S, K, V, O]) partition(k K, n int) int {
	h := fnv.New32a()
	h.Write([]byte(j.keyString(k)))
	return int(h.Sum32() % uint32(n))
}

// TaskContext carries per-task state into user map and reduce code:
// a deterministic random source, the task's identity, and an Observe hook
// feeding the job's custom histograms.
type TaskContext struct {
	// Rand is the task's private random source; user code must use it
	// (not the global rand) so jobs are reproducible.
	Rand *rand.Rand
	// JobName is the name of the running job.
	JobName string
	// Phase is "map" or "reduce".
	Phase string
	// Task is the map-task index, or the reduce-task index.
	Task int

	// observe, when non-nil, records a named observation into the task's
	// local histogram set; the engine folds those into Metrics.Custom.
	observe func(name string, v int64)
}

// Observe records one value into the job's custom histogram named name,
// surfaced after the run as Metrics.Custom[name]. The stratified sampling
// stage uses it for intermediate sample sizes ("reservoir_size"); any map or
// reduce code may add its own series. Observations are folded
// deterministically, and the call is a no-op outside an engine-run task.
// It is intended for per-key or per-task observations, not per-record ones.
func (ctx *TaskContext) Observe(name string, v int64) {
	if ctx.observe != nil {
		ctx.observe(name, v)
	}
}

// taskSeed derives a deterministic per-task seed: the FNV-1a hash of
// "<jobSeed>/<phase>/<id>", computed inline so the per-reduce-key path does
// not allocate. The value is bit-identical to hashing the formatted string.
func taskSeed(jobSeed int64, phase string, id string) int64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	var buf [20]byte
	for _, c := range strconv.AppendInt(buf[:0], jobSeed, 10) {
		h = (h ^ uint64(c)) * prime64
	}
	h = (h ^ '/') * prime64
	for i := 0; i < len(phase); i++ {
		h = (h ^ uint64(phase[i])) * prime64
	}
	h = (h ^ '/') * prime64
	for i := 0; i < len(id); i++ {
		h = (h ^ uint64(id[i])) * prime64
	}
	return int64(h)
}

func newTaskContext(jobName, phase string, task int, seed int64) *TaskContext {
	return &TaskContext{
		Rand:    newTaskRand(seed),
		JobName: jobName,
		Phase:   phase,
		Task:    task,
	}
}
