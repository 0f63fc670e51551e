package mapreduce

import (
	"strconv"
	"time"
)

// This file holds the backend-independent task cores. The in-process engine
// (engine.go) and remote workers (via NewInproc's executor, inproc.go) both
// execute map and reduce attempts through these functions; sharing the
// implementation — same seeding, same partitioning, same per-key reduce RNG —
// is what keeps job output byte-identical across execution backends.

// mapTaskRun is everything one map-task execution produced: per-reducer
// buckets, counters, custom histograms, and — when a clock was supplied —
// the offset at which the stage returned.
type mapTaskRun[K comparable, V any] struct {
	buckets                        [][]Pair[K, V]
	in, out, combineIn, combineOut int64
	custom                         map[string]*Histogram
	done                           time.Duration
}

// mapStream names the random stream of a map task in its seed. The name dates
// from when the combiner was the map-side call that drew; changing it would
// move every sample of every seed.
const mapStream = "combine"

// execMapTask runs the map stage of one task over its split: one MapSplit
// call whose emissions go straight into the per-reducer buckets, and whose
// two counts become the task's logical counters (Mapper). elapsed supplies
// the stage-boundary timestamp for tracing and may be nil when nobody is
// watching (untraced runs, or remote attempts under a frozen clock).
func execMapTask[S sized, K comparable, V any, O any](
	job *Job[S, K, V, O], seed int64, split S, task, numReducers int,
	elapsed func() time.Duration,
) mapTaskRun[K, V] {
	var run mapTaskRun[K, V]
	ctx := newTaskContext(job.Name, "map", task, taskSeed(seed, mapStream, strconv.Itoa(task)))
	ctx.observe = histObserver(&run.custom)
	run.buckets = make([][]Pair[K, V], numReducers)
	run.in = int64(split.Len())
	var emitted int64
	run.out, run.combineIn = job.Mapper.MapSplit(ctx, split, func(k K, v V) {
		emitted++
		p := job.partition(k, numReducers)
		run.buckets[p] = append(run.buckets[p], Pair[K, V]{k, v})
	})
	if run.combineIn > 0 {
		run.combineOut = emitted
	}
	if elapsed != nil {
		run.done = elapsed()
	}
	return run
}

// groupPairs concatenates the task-ordered bucket list of one reducer and
// groups it by key. Value order within a key is (task index, emission order):
// deterministic, so a parallel grouping is byte-identical to a serial one.
func groupPairs[K comparable, V any](parts [][]Pair[K, V]) *keyGroups[K, V] {
	var total int
	for _, pairs := range parts {
		total += len(pairs)
	}
	groups := newKeyGroups[K, V](total)
	for _, pairs := range parts {
		for i := range pairs {
			groups.add(pairs[i].Key, pairs[i].Value)
		}
	}
	return groups
}

// reduceTaskRun is everything one reduce-task execution produced.
type reduceTaskRun[O any] struct {
	out    []O
	inRecs int64
	custom map[string]*Histogram
	perKey map[string]KeyStats
}

// execReduceTask reduces one reducer's groups in canonical key order. groups
// must already be sorted by sortByName and names aligned with its key order
// (the names feed the per-key reduce seeds without re-rendering). collectKeys
// asks for per-key (per-stratum) input/output counters.
func execReduceTask[S sized, K comparable, V any, O any](
	job *Job[S, K, V, O], seed int64, groups *keyGroups[K, V], names []string,
	task int, collectKeys bool,
) reduceTaskRun[O] {
	var run reduceTaskRun[O]
	emit := func(o O) { run.out = append(run.out, o) }
	// One context per reducer task, reseeded per key: a reseed is two word
	// stores, where a fresh context per key paid three allocations. Reduce
	// code only sees ctx during its call.
	ctx := newTaskContext(job.Name, "reduce", task, 0)
	ctx.observe = histObserver(&run.custom)
	if collectKeys {
		run.perKey = make(map[string]KeyStats, len(groups.keyOrder))
	}
	for i, k := range groups.keyOrder {
		// Per-key RNG so the reduction of a key is reproducible no matter
		// which reducer task it lands on.
		ctx.Rand.Seed(taskSeed(seed, "reduce", names[i]))
		vs := groups.lists[i]
		run.inRecs += int64(len(vs))
		before := len(run.out)
		job.Reducer.Reduce(ctx, k, vs, emit)
		if collectKeys {
			ks := run.perKey[names[i]]
			ks.Records += int64(len(vs))
			ks.Output += int64(len(run.out) - before)
			run.perKey[names[i]] = ks
		}
	}
	return run
}
